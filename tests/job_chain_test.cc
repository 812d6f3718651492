// Resident job chains (DESIGN.md §5.9): an iterative sequence where each
// stage adopts the previous stage's reduce state, placement, and input
// cache. The contract under test: for algebraic workloads the chain's
// final iteration emits exactly what one cold job over the union of all
// consumed input emits — incremental refresh is exact, not approximate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mr/job_chain.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/iterative.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

JobConfig ChainConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.shuffle_mode = ShuffleMode::kResident;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 64 << 10;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  return cfg;
}

GrowingLog MakeLog(int iterations) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 24'000;
  clicks.num_users = 1'200;
  clicks.user_skew = 0.8;
  clicks.seed = 17;
  return MakeGrowingClickLog(clicks, iterations, /*growth_fraction=*/0.15,
                             /*chunk_bytes=*/64 << 10, /*nodes=*/4);
}

std::string EngineTestName(const ::testing::TestParamInfo<EngineKind>& info) {
  return EngineTag(info.param);
}

class JobChainExactness : public ::testing::TestWithParam<EngineKind> {};

TEST_P(JobChainExactness, GrowingLogChainEqualsColdJobOverUnion) {
  const int kIters = 4;
  const GrowingLog log = MakeLog(kIters);
  const JobConfig cfg = ChainConfig(GetParam());

  std::vector<ChainStage> stages(kIters);
  for (int i = 0; i < kIters; ++i) {
    stages[static_cast<size_t>(i)] = {ClickCountJob(), cfg,
                                      log.deltas[static_cast<size_t>(i)].get()};
  }
  auto chain = RunJobChain(stages);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->iterations.size(), static_cast<size_t>(kIters));

  // State carry is an INC/DINC feature; every engine still gets the
  // resident shuffle itself. With carry the final stage's answer covers
  // the whole log; without it each stage is an independent job over its
  // delta, so the cold reference is the final delta alone.
  const bool carries = GetParam() == EngineKind::kIncHash ||
                       GetParam() == EngineKind::kDincHash;
  JobConfig cold_cfg = cfg;
  cold_cfg.shuffle_mode = ShuffleMode::kDisk;
  auto cold = LocalCluster::RunJob(
      ClickCountJob(), cold_cfg,
      carries ? *log.fulls.back() : *log.deltas.back());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  EXPECT_EQ(SortedOutputs(chain->iterations.back()), SortedOutputs(*cold))
      << "chain refresh diverged from the cold reference job";
  const JobMetrics& warm = chain->iterations.back().metrics;
  if (carries) {
    EXPECT_GT(warm.resident_state_restores, 0u);
    EXPECT_GT(warm.resident_state_restored_bytes, 0u);
    // Stage 0 has no prior state but must save its own.
    EXPECT_EQ(chain->iterations[0].metrics.resident_state_restores, 0u);
    EXPECT_GT(chain->iterations[0].metrics.resident_state_saved_bytes, 0u);
  } else {
    EXPECT_EQ(warm.resident_state_restores, 0u);
  }
  EXPECT_GT(warm.resident_publish_segments, 0u);

  // Placement was captured from the authoritative replay: every partition
  // landed on a real node.
  EXPECT_FALSE(chain->placement.empty());
  for (const int node : chain->placement.reduce_node) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, cfg.cluster.nodes);
  }
  for (const int node : chain->placement.map_node) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, cfg.cluster.nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, JobChainExactness,
    ::testing::Values(EngineKind::kSortMerge, EngineKind::kMRHash,
                      EngineKind::kIncHash, EngineKind::kDincHash),
    EngineTestName);

// Checkpoint chains and the resident state carry in one job: the engine
// writes delta images every 4 deliveries, and the state the next stage
// adopts must still be the full stream — a delta would not restore, and
// the adopting stage would fail or diverge from the cold job.
class JobChainCheckpointed : public ::testing::TestWithParam<EngineKind> {};

TEST_P(JobChainCheckpointed, AdoptedStateIsFullUnderCheckpointChains) {
  const GrowingLog log = MakeLog(2);
  JobConfig cfg = ChainConfig(GetParam());
  cfg.checkpoint_interval_segments = 4;
  auto chain = RunJobChain({{ClickCountJob(), cfg, log.deltas[0].get()},
                            {ClickCountJob(), cfg, log.deltas[1].get()}});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->iterations.size(), 2u);
  const JobMetrics& first = chain->iterations[0].metrics;
  // Several images per reducer, so each chain reaches its deltas.
  EXPECT_GT(first.checkpoints_written,
            2u * static_cast<uint64_t>(cfg.cluster.nodes *
                                       cfg.reducers_per_node));
  EXPECT_GT(first.resident_state_saved_bytes, 0u);
  EXPECT_GT(chain->iterations[1].metrics.resident_state_restores, 0u);

  JobConfig cold_cfg = cfg;
  cold_cfg.shuffle_mode = ShuffleMode::kDisk;
  cold_cfg.checkpoint_interval_segments = 0;
  auto cold = LocalCluster::RunJob(ClickCountJob(), cold_cfg,
                                   *log.fulls.back());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(SortedOutputs(chain->iterations.back()), SortedOutputs(*cold));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, JobChainCheckpointed,
    ::testing::Values(EngineKind::kIncHash, EngineKind::kDincHash),
    EngineTestName);

TEST(JobChainTest, RepeatedSameInputChainIsExactAndCachesInput) {
  // Idempotent aggregate (min label) re-run over the same store: every
  // warm iteration's answer equals the cold one, and iterations after the
  // first serve map input from the resident input cache.
  ClickStreamConfig clicks;
  clicks.num_clicks = 20'000;
  clicks.num_users = 1'000;
  clicks.seed = 23;
  ChunkStore input(64 << 10, 4);
  GenerateClickStream(clicks, &input);

  const JobConfig cfg = ChainConfig(EngineKind::kIncHash);
  const ChainStage stage{LabelPropagationJob(), cfg, &input};
  auto chain = RunJobChain({stage, stage, stage});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->iterations.size(), 3u);

  JobConfig cold_cfg = cfg;
  cold_cfg.shuffle_mode = ShuffleMode::kDisk;
  auto cold = LocalCluster::RunJob(LabelPropagationJob(), cold_cfg, input);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  const std::string want = SortedOutputs(*cold);
  for (const JobResult& iter : chain->iterations) {
    EXPECT_EQ(SortedOutputs(iter), want);
  }
  EXPECT_EQ(chain->iterations[0].metrics.resident_cached_input_bytes, 0u);
  EXPECT_GT(chain->iterations[1].metrics.resident_cached_input_bytes, 0u);
  EXPECT_GT(chain->iterations[2].metrics.resident_state_restores, 0u);
}

TEST(JobChainTest, DiskModeChainRunsColdEveryIteration) {
  const GrowingLog log = MakeLog(2);
  JobConfig cfg = ChainConfig(EngineKind::kIncHash);
  cfg.shuffle_mode = ShuffleMode::kDisk;
  std::vector<ChainStage> stages = {
      {ClickCountJob(), cfg, log.deltas[0].get()},
      {ClickCountJob(), cfg, log.deltas[1].get()},
  };
  auto chain = RunJobChain(stages);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->iterations.size(), stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    const JobResult& iter = chain->iterations[i];
    EXPECT_EQ(iter.metrics.resident_publish_segments, 0u);
    EXPECT_EQ(iter.metrics.resident_state_restores, 0u);
    EXPECT_EQ(iter.metrics.resident_cached_input_bytes, 0u);
    // A kDisk stage is an ordinary cold job, replayed on the same path
    // as RunJob, so it must reproduce RunJob exactly.
    auto solo = LocalCluster::RunJob(ClickCountJob(), cfg, *stages[i].input);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    EXPECT_EQ(iter.metrics.Serialize(), solo->metrics.Serialize());
    EXPECT_EQ(iter.running_time, solo->running_time);
    EXPECT_EQ(iter.map_finish_time, solo->map_finish_time);
    EXPECT_EQ(iter.reduce_progress.times, solo->reduce_progress.times);
    EXPECT_EQ(iter.reduce_progress.values, solo->reduce_progress.values);
    EXPECT_EQ(iter.cpu_util.bin_seconds, solo->cpu_util.bin_seconds);
    EXPECT_EQ(iter.cpu_util.values, solo->cpu_util.values);
  }
}

// Partition-stable placement survives a crash: stage 1 loses node 1 at
// 30% of its maps, so some maps finish on another replica holder; clean
// stage 2 re-reads the same store and must run every one of the input's
// map tasks where stage 1's winner ran. Under kNode the replay also runs
// one virtual combine task per node, which must not hide the real maps'
// placement from the next stage.
class JobChainPlacement : public ::testing::TestWithParam<CombineScope> {};

TEST_P(JobChainPlacement, StageTwoMapsRunWhereStageOneWon) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 40'000;
  clicks.num_users = 1'500;
  clicks.seed = 29;
  ChunkStore input(64 << 10, 4, /*replication=*/2);
  GenerateClickStream(clicks, &input);

  JobConfig cfg = ChainConfig(EngineKind::kIncHash);
  cfg.combine_scope = GetParam();
  JobConfig crashed = cfg;
  sim::CrashEvent crash;
  crash.node = 1;
  crash.at_map_fraction = 0.3;
  crashed.faults.crashes = {crash};

  auto one = RunJobChain({{ClickCountJob(), crashed, &input}});
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  auto two = RunJobChain({{ClickCountJob(), crashed, &input},
                          {ClickCountJob(), cfg, &input}});
  ASSERT_TRUE(two.ok()) << two.status().ToString();

  const size_t maps = input.chunks().size();
  ASSERT_GE(one->placement.map_node.size(), maps);
  ASSERT_GE(two->placement.map_node.size(), maps);
  int moved = 0;
  for (size_t m = 0; m < maps; ++m) {
    const int won = one->placement.map_node[m];
    if (won != input.chunks()[m].node) ++moved;
    EXPECT_EQ(two->placement.map_node[m], won) << "map " << m;
  }
  EXPECT_GT(moved, 0) << "the crash moved no map; nothing was pinned";
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, JobChainPlacement,
    ::testing::Values(CombineScope::kTask, CombineScope::kNode),
    [](const ::testing::TestParamInfo<CombineScope>& info) {
      return std::string(info.param == CombineScope::kTask ? "Task"
                                                           : "Node");
    });

TEST(JobChainTest, RejectsMalformedChains) {
  const GrowingLog log = MakeLog(2);
  const JobConfig cfg = ChainConfig(EngineKind::kIncHash);

  // Empty chain.
  EXPECT_FALSE(RunJobChain({}).ok());

  // Missing input store.
  {
    std::vector<ChainStage> stages = {{ClickCountJob(), cfg, nullptr}};
    EXPECT_FALSE(RunJobChain(stages).ok());
  }

  // Too many stages.
  {
    std::vector<ChainStage> stages(
        65, ChainStage{ClickCountJob(), cfg, log.deltas[0].get()});
    EXPECT_FALSE(RunJobChain(stages).ok());
  }

  // Consecutive resident stages must agree on the engine.
  {
    JobConfig other = cfg;
    other.engine = EngineKind::kDincHash;
    std::vector<ChainStage> stages = {
        {ClickCountJob(), cfg, log.deltas[0].get()},
        {ClickCountJob(), other, log.deltas[1].get()},
    };
    EXPECT_FALSE(RunJobChain(stages).ok());
  }

  // ... and on the seed (the hash family derives from it).
  {
    JobConfig other = cfg;
    other.seed += 1;
    std::vector<ChainStage> stages = {
        {ClickCountJob(), cfg, log.deltas[0].get()},
        {ClickCountJob(), other, log.deltas[1].get()},
    };
    EXPECT_FALSE(RunJobChain(stages).ok());
  }
}

}  // namespace
}  // namespace onepass
