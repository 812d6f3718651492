// Determinism regression for the parallel data plane (DESIGN.md §5.3):
// the same job at data_plane_threads = 1, 2, and 8 must produce
// byte-identical results — outputs, every metric, the simulated running
// time, and every progress/utilization curve — including under nonzero
// fault and corruption rates, whose draws are keyed by task id rather
// than execution order. Exact double equality is intentional: within one
// binary the parallel schedule must not perturb a single operation.

#include <gtest/gtest.h>

#include <string>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

ChunkStore MakeInputStore(int replication = 1) {
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

void ExpectThreadCountInvariant(const JobConfig& base,
                                const ChunkStore& input) {
  JobConfig cfg = base;
  cfg.data_plane_threads = 1;
  auto sequential = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  const std::string want = Fingerprint(*sequential);
  for (int threads : {2, 8}) {
    cfg.data_plane_threads = threads;
    auto parallel = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(parallel.ok())
        << "threads=" << threads << ": " << parallel.status().ToString();
    const std::string got = Fingerprint(*parallel);
    EXPECT_EQ(got, want) << "threads=" << threads
                         << " diverged from the sequential run";
  }
}

class ParallelDeterminism : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ParallelDeterminism, CleanRunByteIdenticalAcrossThreadCounts) {
  const ChunkStore input = MakeInputStore();
  ExpectThreadCountInvariant(BaseConfig(GetParam()), input);
}

TEST_P(ParallelDeterminism, FaultedRunByteIdenticalAcrossThreadCounts) {
  const ChunkStore input = MakeInputStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  // Crashes, stragglers, transient errors, and silent corruption all on
  // at once: the draws must come out identical at every thread count.
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
  cfg.faults.stragglers.push_back(
      {.node = 1, .cpu_factor = 2.0, .disk_factor = 1.5});
  cfg.faults.disk_error_rate = 0.05;
  cfg.faults.fetch_failure_rate = 0.05;
  cfg.faults.speculative_execution = true;
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  ExpectThreadCountInvariant(cfg, input);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ParallelDeterminism,
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
