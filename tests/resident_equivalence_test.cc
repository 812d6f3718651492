// The resident shuffle engine must be invisible to the answer (DESIGN.md
// §5.9): with shuffle_mode = kResident every engine produces exactly the
// records it produces under kDisk — on clean runs, under fault schedules,
// at every data-plane thread count, and with and without the block codec.
// Residency is a time-plane property: phases 1-3 consume the same bytes in
// the same order either way.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

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

// Runs the job under kDisk and kResident for every codec x thread-count
// combination and compares the answers. Cross-mode comparison is
// outputs-only: the resident counters make Serialize() differ between
// modes by design.
void ExpectResidentInvisible(const JobSpec& job, const JobConfig& base,
                             const ChunkStore& input) {
  for (const BlockCodecKind codec :
       {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
    for (const int threads : {1, 8}) {
      JobConfig disk = base;
      disk.block_codec = codec;
      disk.data_plane_threads = threads;
      disk.shuffle_mode = ShuffleMode::kDisk;
      auto cold = LocalCluster::RunJob(job, disk, input);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();

      JobConfig res = disk;
      res.shuffle_mode = ShuffleMode::kResident;
      auto warm = LocalCluster::RunJob(job, res, input);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();

      EXPECT_EQ(SortedOutputs(*warm), SortedOutputs(*cold))
          << "kResident changed the answer (codec="
          << (codec == BlockCodecKind::kLz ? "lz" : "none")
          << " threads=" << threads << ")";
      // Residency engaged, and kDisk runs charge none of its counters.
      EXPECT_GT(warm->metrics.resident_publish_segments, 0u);
      EXPECT_EQ(cold->metrics.resident_publish_segments, 0u);
      EXPECT_EQ(cold->metrics.resident_hit_bytes, 0u);
    }
  }
}

class ResidentEquivalence : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ResidentEquivalence, CleanRunSameAnswer) {
  const ChunkStore input = MakeClickStore();
  ExpectResidentInvisible(ClickCountJob(), BaseConfig(GetParam()), input);
}

TEST_P(ResidentEquivalence, FaultedRunSameAnswer) {
  // Crashes invalidate resident segments; recovery re-executes through
  // the disk-backed replica path and must converge to the same answer.
  const ChunkStore input = MakeClickStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
  cfg.faults.disk_error_rate = 0.05;
  cfg.faults.fetch_failure_rate = 0.05;
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  ExpectResidentInvisible(ClickCountJob(), cfg, input);
}

TEST_P(ResidentEquivalence, ResidentRunByteIdenticalAcrossThreadCounts) {
  // Within kResident the whole run — every counter in Serialize() plus
  // the answer — must be byte-identical at any thread count.
  const ChunkStore input = MakeClickStore();
  JobConfig cfg = BaseConfig(GetParam());
  cfg.shuffle_mode = ShuffleMode::kResident;
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

TEST_P(ResidentEquivalence, SessionizationSameAnswer) {
  // A stateful streaming workload (order-sensitive inside the bounded
  // buffer): residency must not perturb the delivery order phases 1-3
  // fixed.
  const ChunkStore input = MakeClickStore();
  JobConfig cfg = BaseConfig(GetParam());
  cfg.map_side_combine = false;
  cfg.reduce_memory_bytes = 64 << 10;
  ExpectResidentInvisible(SessionizationJob(), cfg, input);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ResidentEquivalence,
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
