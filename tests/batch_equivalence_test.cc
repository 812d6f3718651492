// Batch-equivalence property test for the vectorized data plane
// (DESIGN.md §5.8): the batch-at-a-time walk is an execution strategy,
// never a semantics change. For every engine, a Zipf-skewed, padded-value
// clickstream under starved reduce memory must produce byte-identical
// results — outputs, every serialized metric, the simulated clock, and
// every progress curve — across
//   batch size   {1, 7, 64, 0 (block-derived)}   x
//   threads      {1, 8}                          x
//   codec        {kNone, kLz}                    x
//   SIMD tier    {kScalar, detected}
// and under a faulted schedule (crash + straggler + corruption). The
// baseline is the scalar-equivalent walk: batch_records=1, one thread,
// the process-wide SIMD tier pinned to kScalar. Anything the batch plane
// changes beyond wall-clock shows up here as a fingerprint diff.
//
// The serialized metrics are also required to stay free of the batch
// counters themselves (record_batches / batched_records are host-side
// instrumentation, like compress_ns), so metrics goldens cannot move
// with the batch size.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/util/simd_dispatch.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

// Zipf-skewed users, padded 128-byte records: the §5.8 stress shape.
ChunkStore MakeInputStore(int replication = 1) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 24'000;
  clicks.num_users = 1'200;
  clicks.user_skew = 1.1;
  clicks.record_bytes = 128;
  clicks.seed = 58;
  ChunkStore input(64 << 10, 5, replication);
  GenerateClickStream(clicks, &input);
  return input;
}

// Starved reduce memory: every engine spills, so the batched digests
// route records through the spill/bucket paths too.
JobConfig BaseConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 5;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 8 << 10;
  cfg.merge_factor = 4;
  cfg.bucket_page_bytes = 1024;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  return cfg;
}

struct Variant {
  uint64_t batch;
  int threads;
};

// batch=0 derives the size from codec_block_bytes (the ~48 KB natural
// unit); 7 is a deliberately awkward stride that never divides a segment
// evenly; 64 is the common mid-size.
constexpr Variant kVariants[] = {
    {1, 1}, {7, 1}, {64, 1}, {0, 1}, {7, 8}, {64, 8}, {0, 8},
};

void ExpectBatchInvariant(const JobConfig& base, const ChunkStore& input) {
  for (const BlockCodecKind codec :
       {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
    JobConfig cfg = base;
    cfg.block_codec = codec;
    // Scalar-equivalent baseline: one record per batch, one thread, SIMD
    // kernels pinned off (then restored for the variants).
    cfg.batch_records = 1;
    cfg.data_plane_threads = 1;
    SetSimdTier(SimdTier::kScalar);
    auto baseline = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    SetSimdTier(DetectSimdTier());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const std::string want = Fingerprint(*baseline);
    ASSERT_EQ(want.find("record_batches"), std::string::npos)
        << "batch counters are host-side instrumentation and must not be "
           "serialized";
    for (const Variant& v : kVariants) {
      cfg.batch_records = v.batch;
      cfg.data_plane_threads = v.threads;
      auto run = LocalCluster::RunJob(ClickCountJob(), cfg, input);
      ASSERT_TRUE(run.ok()) << "batch=" << v.batch
                            << " threads=" << v.threads << ": "
                            << run.status().ToString();
      EXPECT_GT(run->metrics.batched_records, 0u)
          << "the batched consume loop never ran";
      EXPECT_EQ(Fingerprint(*run), want)
          << "batch=" << v.batch << " threads=" << v.threads
          << " codec=" << static_cast<int>(codec)
          << " diverged from the scalar baseline";
    }
  }
}

class BatchEquivalence : public ::testing::TestWithParam<EngineKind> {};

TEST_P(BatchEquivalence, CleanRunByteIdenticalAcrossBatchShapes) {
  const ChunkStore input = MakeInputStore();
  ExpectBatchInvariant(BaseConfig(GetParam()), input);
}

TEST_P(BatchEquivalence, FaultedRunByteIdenticalAcrossBatchShapes) {
  const ChunkStore input = MakeInputStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  // Crash, straggler, transient errors, and silent corruption at once:
  // recovery replays must land on the same bytes at every batch size.
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
  cfg.faults.stragglers.push_back(
      {.node = 1, .cpu_factor = 2.0, .disk_factor = 1.5});
  cfg.faults.disk_error_rate = 0.05;
  cfg.faults.fetch_failure_rate = 0.05;
  cfg.faults.speculative_execution = true;
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  ExpectBatchInvariant(cfg, input);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BatchEquivalence,
    ::testing::Values(EngineKind::kSortMerge, EngineKind::kMRHash,
                      EngineKind::kIncHash, EngineKind::kDincHash),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      std::string name(EngineKindName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace onepass
