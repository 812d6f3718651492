// The block codec must be invisible to the answer (DESIGN.md §5.5): with
// block_codec = kLz every engine produces exactly the records it produces
// under kNone — on clean runs, under fault/corruption schedules, and at
// every data-plane thread count — while the intermediate byte plane (map
// spills, shuffle, reduce spills) shrinks. The Zipf word-count workload
// must shrink at least 2x end to end.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/mr/cluster.h"
#include "src/storage/block_format.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/documents.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

// Bytes the intermediate byte plane moved: U2 + U3 + U4 (reads + writes).
// Map input and reduce output are outside the codec's reach.
uint64_t IntermediateBytes(const JobMetrics& m) {
  return m.map_spill_write_bytes + m.map_spill_read_bytes +
         m.map_output_bytes + m.shuffle_bytes + m.reduce_spill_write_bytes +
         m.reduce_spill_read_bytes;
}

ChunkStore MakeClickStore(int replication = 1) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 30'000;
  clicks.num_users = 1'500;
  clicks.user_skew = 0.8;
  clicks.seed = 11;
  ChunkStore input(64 << 10, 5, replication);
  GenerateClickStream(clicks, &input);
  return input;
}

JobConfig BaseConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 5;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 8 << 10;  // tight: spills on every engine
  cfg.merge_factor = 4;
  cfg.bucket_page_bytes = 1024;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  return cfg;
}

void ExpectCodecInvisible(const JobSpec& job, const JobConfig& base,
                          const ChunkStore& input) {
  JobConfig none = base;
  none.block_codec = BlockCodecKind::kNone;
  auto plain = LocalCluster::RunJob(job, none, input);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  JobConfig lz = base;
  lz.block_codec = BlockCodecKind::kLz;
  auto coded = LocalCluster::RunJob(job, lz, input);
  ASSERT_TRUE(coded.ok()) << coded.status().ToString();

  EXPECT_EQ(SortedOutputs(*coded), SortedOutputs(*plain))
      << "kLz changed the answer";
  // The codec actually engaged and the byte plane shrank.
  EXPECT_GT(coded->metrics.codec_shuffle_raw_bytes, 0u);
  EXPECT_LT(IntermediateBytes(coded->metrics),
            IntermediateBytes(plain->metrics));
  // kNone runs charge no codec counters at all.
  EXPECT_EQ(plain->metrics.codec_shuffle_raw_bytes, 0u);
  EXPECT_EQ(plain->metrics.codec_shuffle_encoded_bytes, 0u);
  EXPECT_EQ(plain->metrics.codec_map_spill_raw_bytes, 0u);
  EXPECT_EQ(plain->metrics.codec_reduce_spill_raw_bytes, 0u);
  EXPECT_EQ(plain->metrics.codec_bucket_raw_bytes, 0u);
}

class CodecEquivalence : public ::testing::TestWithParam<EngineKind> {};

TEST_P(CodecEquivalence, CleanRunSameAnswerFewerBytes) {
  const ChunkStore input = MakeClickStore();
  ExpectCodecInvisible(ClickCountJob(), BaseConfig(GetParam()), input);
}

TEST_P(CodecEquivalence, FaultedCorruptedRunSameAnswer) {
  // Corruption injection and torn-write recovery operate on the *encoded*
  // frames; recovery must still converge to the same answer.
  const ChunkStore input = MakeClickStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
  cfg.faults.disk_error_rate = 0.05;
  cfg.faults.fetch_failure_rate = 0.05;
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  ExpectCodecInvisible(ClickCountJob(), cfg, input);
}

TEST_P(CodecEquivalence, LzRunByteIdenticalAcrossThreadCounts) {
  // Under kLz the job (including every codec byte counter and the decode
  // CPU charges) must stay byte-identical at any thread count, exactly
  // like the kNone plane. Wall-clock codec timers are excluded from
  // Serialize() for this reason.
  const ChunkStore input = MakeClickStore();
  JobConfig cfg = BaseConfig(GetParam());
  cfg.block_codec = BlockCodecKind::kLz;
  cfg.data_plane_threads = 1;
  auto sequential = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  const std::string want =
      sequential->metrics.Serialize() + SortedOutputs(*sequential);
  for (int threads : {2, 8}) {
    cfg.data_plane_threads = threads;
    auto parallel = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->metrics.Serialize() + SortedOutputs(*parallel), want)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, CodecEquivalence,
    ::testing::Values(EngineKind::kSortMerge, EngineKind::kMRHash,
                      EngineKind::kIncHash, EngineKind::kDincHash),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      std::string name(EngineKindName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(CodecZipfWordCount, IntermediateBytesDropAtLeastTwofold) {
  // The acceptance bar: on the Zipf'd word-count (trigram) workload the
  // encoded byte plane is at most half the raw one — with every spilled
  // map run still reaching the answer.
  DocumentCorpusConfig docs;
  docs.num_records = 6'000;
  docs.words_per_record = 20;
  docs.vocabulary = 40'000;
  docs.word_skew = 1.0;
  docs.seed = 20110614;
  ChunkStore input(256 << 10, 3, 1);
  GenerateDocuments(docs, &input);

  JobConfig cfg;
  cfg.engine = EngineKind::kSortMerge;  // the spill-heaviest engine
  cfg.cluster.nodes = 3;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 256 << 10;
  cfg.map_buffer_bytes = 128 << 10;   // forces map-side spill runs
  cfg.reduce_memory_bytes = 64 << 10;  // forces reduce-side runs
  cfg.merge_factor = 4;
  cfg.collect_outputs = true;

  auto RunWith = [&](BlockCodecKind codec) {
    cfg.block_codec = codec;
    auto r = LocalCluster::RunJob(TrigramCountJob(/*threshold=*/5), cfg,
                                  input);
    if (!r.ok()) {
      ADD_FAILURE() << r.status().ToString();
      return JobResult{};
    }
    return std::move(*r);
  };
  const JobResult plain = RunWith(BlockCodecKind::kNone);
  const JobResult coded = RunWith(BlockCodecKind::kLz);
  EXPECT_EQ(SortedOutputs(coded), SortedOutputs(plain))
      << "kLz returned " << coded.outputs.size() << " of "
      << plain.outputs.size() << " records";
  const uint64_t raw = IntermediateBytes(plain.metrics);
  const uint64_t enc = IntermediateBytes(coded.metrics);
  EXPECT_GE(raw, 2 * enc) << "raw=" << raw << " encoded=" << enc
                          << " ratio=" << static_cast<double>(raw) / enc;
}

}  // namespace
}  // namespace onepass
