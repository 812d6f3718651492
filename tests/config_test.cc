#include "src/mr/config.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/model/cost_model.h"
#include "src/mr/cluster.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

TEST(ConfigTest, EngineNamesAreDistinct) {
  EXPECT_EQ(EngineKindName(EngineKind::kSortMerge), "sort-merge");
  EXPECT_EQ(EngineKindName(EngineKind::kMRHash), "MR-hash");
  EXPECT_EQ(EngineKindName(EngineKind::kIncHash), "INC-hash");
  EXPECT_EQ(EngineKindName(EngineKind::kDincHash), "DINC-hash");
}

TEST(ConfigTest, DefaultsAreSane) {
  JobConfig cfg;
  EXPECT_GE(cfg.cluster.nodes, 1);
  EXPECT_GE(cfg.merge_factor, 2);
  EXPECT_GT(cfg.chunk_bytes, 0u);
  EXPECT_GT(cfg.map_buffer_bytes, 0u);
  EXPECT_GT(cfg.reduce_memory_bytes, 0u);
  EXPECT_EQ(cfg.dinc_coverage_threshold, 0.0);
  EXPECT_FALSE(cfg.pipelining);
  EXPECT_EQ(cfg.snapshots, 0);
}

TEST(ConfigValidateTest, DefaultsValidate) {
  EXPECT_TRUE(JobConfig().Validate().ok());
}

TEST(ConfigValidateTest, RejectsBadClusterShape) {
  JobConfig cfg;
  cfg.cluster.nodes = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg = JobConfig();
  cfg.cluster.map_slots = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg = JobConfig();
  cfg.reducers_per_node = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(ConfigValidateTest, RejectsBadKnobs) {
  JobConfig cfg;
  cfg.merge_factor = 1;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg = JobConfig();
  cfg.chunk_bytes = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg = JobConfig();
  cfg.map_buffer_bytes = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg = JobConfig();
  cfg.dinc_coverage_threshold = 1.5;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

// A bin that is not positive and finite would turn RunJob's utilization
// series into NaN or negative samples; the job gate rejects it.
TEST(ConfigValidateTest, RejectsBadTimelineBin) {
  for (const double bin : {0.0, -1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    JobConfig cfg;
    cfg.timeline_bin_s = bin;
    EXPECT_TRUE(cfg.Validate().IsInvalidArgument()) << bin;
    EXPECT_TRUE(ValidateJob(ClickCountJob(), cfg).IsInvalidArgument())
        << bin;
  }
}

TEST(ConfigValidateTest, DataPlaneThreads) {
  JobConfig cfg;
  cfg.data_plane_threads = 0;  // auto: one per hardware thread
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.data_plane_threads = 1;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.data_plane_threads = 64;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.data_plane_threads = -1;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.data_plane_threads = 1025;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(ConfigValidateTest, RejectsBadReplication) {
  JobConfig cfg;
  cfg.replication = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.replication = cfg.cluster.nodes + 1;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.replication = cfg.cluster.nodes;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigValidateTest, RejectsBadFaultConfig) {
  JobConfig cfg;
  sim::CrashEvent crash;
  crash.node = cfg.cluster.nodes;  // out of range
  crash.time = 1.0;
  cfg.faults.crashes = {crash};
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  crash.node = 0;
  crash.time = -1;  // neither time nor fraction set
  crash.at_map_fraction = -1;
  cfg.faults.crashes = {crash};
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  crash.time = 1.0;
  crash.at_map_fraction = 0.5;  // both set
  cfg.faults.crashes = {crash};
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  cfg.faults.fetch_failure_rate = 1.0;  // must be < 1
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  cfg.faults.max_attempts = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  sim::StragglerSpec slow;
  slow.node = 1;
  slow.cpu_factor = 0.5;  // stragglers are slower, not faster
  cfg.faults.stragglers = {slow};
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  crash = sim::CrashEvent();
  crash.node = 1;
  crash.at_map_fraction = 0.5;
  cfg.faults.crashes = {crash};
  slow.cpu_factor = 2.0;
  cfg.faults.stragglers = {slow};
  cfg.faults.disk_error_rate = 0.01;
  cfg.faults.speculative_execution = true;
  EXPECT_TRUE(cfg.Validate().ok()) << cfg.Validate().ToString();
  EXPECT_TRUE(cfg.faults.any());
}

TEST(ConfigValidateTest, RejectsBadIntegrityConfig) {
  JobConfig cfg;
  cfg.faults.corruption_rate = -0.1;  // out of range
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  cfg.faults.corruption_rate = 1.0;  // must be < 1
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());

  cfg = JobConfig();
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  EXPECT_TRUE(cfg.Validate().ok()) << cfg.Validate().ToString();
  EXPECT_TRUE(cfg.faults.any());
}

TEST(CostModelTest, PaperConstants) {
  CostModel c;
  // 80 MB/s sequential disk.
  EXPECT_NEAR(1.0 / c.disk_byte_s, 80.0 * 1024 * 1024, 1.0);
  EXPECT_DOUBLE_EQ(c.disk_seek_s, 0.004);
  EXPECT_DOUBLE_EQ(c.task_start_s, 0.100);
}

TEST(ConfigValidateTest, ResidentShuffleKnobs) {
  JobConfig cfg;
  cfg.shuffle_mode = ShuffleMode::kResident;
  EXPECT_TRUE(cfg.Validate().ok());
}

// Engine-only features: pipelining and snapshots belong to the sort-merge
// baseline (§3.3), the coverage threshold to DINC-hash (§4.3). Each one
// validates on its own engine and is InvalidArgument on every other.
TEST(ConfigValidateTest, EngineOnlyFeatures) {
  struct Feature {
    const char* name;
    EngineKind own;
    void (*set)(JobConfig*);
  };
  const Feature features[] = {
      {"pipelining", EngineKind::kSortMerge,
       [](JobConfig* c) { c->pipelining = true; }},
      {"snapshots=3", EngineKind::kSortMerge,
       [](JobConfig* c) { c->snapshots = 3; }},
      {"phi=0.5", EngineKind::kDincHash,
       [](JobConfig* c) { c->dinc_coverage_threshold = 0.5; }},
  };
  for (const Feature& f : features) {
    for (const EngineKind e : {EngineKind::kSortMerge, EngineKind::kMRHash,
                               EngineKind::kIncHash, EngineKind::kDincHash}) {
      JobConfig cfg;
      cfg.engine = e;
      f.set(&cfg);
      const Status s = cfg.Validate();
      if (e == f.own) {
        EXPECT_TRUE(s.ok()) << f.name << " on " << EngineKindName(e) << ": "
                            << s.ToString();
      } else {
        EXPECT_TRUE(s.IsInvalidArgument())
            << f.name << " on " << EngineKindName(e);
      }
    }
  }
  // A negative snapshot count is wrong on every engine, sort-merge too.
  JobConfig cfg;
  cfg.snapshots = -1;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(ConfigTest, CombineScopeValidation) {
  JobConfig cfg;
  cfg.engine = EngineKind::kIncHash;
  cfg.combine_scope = CombineScope::kNode;
  EXPECT_TRUE(cfg.Validate().ok());

  // The node barrier holds combined pushes until every co-located map task
  // finishes; pipelining's eager per-spill pushes contradict that.
  cfg.pipelining = true;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.pipelining = false;

  // SM/MR-hash only carry partial aggregates when map_side_combine is on;
  // without it there is no combine function for the node tier to apply.
  for (const EngineKind e : {EngineKind::kSortMerge, EngineKind::kMRHash}) {
    cfg.engine = e;
    cfg.map_side_combine = false;
    EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
    cfg.map_side_combine = true;
    EXPECT_TRUE(cfg.Validate().ok());
  }

  // INC/DINC always combine; map_side_combine is not required.
  cfg.engine = EngineKind::kDincHash;
  cfg.map_side_combine = false;
  EXPECT_TRUE(cfg.Validate().ok());

  // kTask is the default and never constrained by any of the above.
  JobConfig task;
  task.pipelining = true;
  EXPECT_EQ(task.combine_scope, CombineScope::kTask);
  EXPECT_TRUE(task.Validate().ok());
}

TEST(ConfigTest, NodeCombineBudgetValidation) {
  JobConfig cfg;
  cfg.engine = EngineKind::kIncHash;
  cfg.combine_scope = CombineScope::kNode;
  cfg.node_combine_budget_bytes = 0;  // unbounded
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.node_combine_budget_bytes = 4095;  // below one table block
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.node_combine_budget_bytes = 4096;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.node_combine_budget_bytes = 1 << 20;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(ConfigTest, CombineScopeNamesAreDistinct) {
  EXPECT_NE(CombineScopeName(CombineScope::kTask),
            CombineScopeName(CombineScope::kNode));
  EXPECT_EQ(CombineScopeName(CombineScope::kTask), "task");
  EXPECT_EQ(CombineScopeName(CombineScope::kNode), "node");
}

TEST(ConfigTest, ShuffleModeNamesAreDistinct) {
  EXPECT_NE(ShuffleModeName(ShuffleMode::kDisk),
            ShuffleModeName(ShuffleMode::kResident));
  EXPECT_EQ(ShuffleModeName(ShuffleMode::kDisk), "disk");
  EXPECT_EQ(ShuffleModeName(ShuffleMode::kResident), "resident");
}

TEST(CostModelTest, SortCostIsNLogN) {
  CostModel c;
  EXPECT_DOUBLE_EQ(c.SortCost(0), 0.0);
  EXPECT_DOUBLE_EQ(c.SortCost(1), 0.0);
  const double s1k = c.SortCost(1000);
  const double s2k = c.SortCost(2000);
  // Superlinear but less than quadratic.
  EXPECT_GT(s2k, 2 * s1k);
  EXPECT_LT(s2k, 3 * s1k);
}

TEST(CostModelTest, MergeCostLinear) {
  CostModel c;
  EXPECT_DOUBLE_EQ(c.MergeCost(2000), 2 * c.MergeCost(1000));
}

}  // namespace
}  // namespace onepass
