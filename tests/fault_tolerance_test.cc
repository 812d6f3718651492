// Recovery end to end: crash-forced re-execution from replicated input,
// the lost-map-output rule, transient retry paths, speculative execution,
// max_attempts exhaustion as a Status, and byte-identical determinism of
// the whole JobResult under a fixed FaultPlan.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "tests/fault_test_util.h"

namespace onepass {
namespace {

sim::CrashEvent CrashAtHalfMaps(int node) {
  sim::CrashEvent crash;
  crash.node = node;
  crash.at_map_fraction = 0.5;
  return crash;
}

TEST(FaultToleranceTest, CrashMidMapRecoversWithReplication) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  for (EngineKind engine : kAllEngines) {
    JobConfig cfg = FaultConfigFor(engine, 2);
    auto healthy = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
    EXPECT_EQ(healthy->metrics.killed_attempts, 0u);
    EXPECT_EQ(healthy->metrics.map_task_attempts,
              static_cast<uint64_t>(healthy->map_tasks));

    cfg.faults.crashes = {CrashAtHalfMaps(2)};
    auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(r.ok()) << EngineKindName(engine) << ": "
                        << r.status().ToString();

    // Identical answer despite re-execution (tasks are deterministic).
    EXPECT_EQ(CountsOf(r->outputs), expected) << EngineKindName(engine);

    // The crash was seen and paid for: extra attempts, killed work,
    // and a longer run on three surviving nodes.
    const JobMetrics& m = r->metrics;
    EXPECT_EQ(m.node_crashes, 1u);
    EXPECT_GT(m.map_task_attempts, static_cast<uint64_t>(r->map_tasks));
    EXPECT_GT(m.killed_attempts, 0u);
    EXPECT_GT(m.recovery_bytes + static_cast<uint64_t>(m.wasted_cpu_s * 1e6),
              0u);
    EXPECT_GT(r->running_time, healthy->running_time)
        << EngineKindName(engine);

    // Progress semantics survive recovery.
    EXPECT_NEAR(r->map_progress.FinalValue(), 100.0, 1e-6);
    EXPECT_NEAR(r->reduce_progress.FinalValue(), 100.0, 1e-6);
    for (size_t i = 1; i < r->reduce_progress.values.size(); ++i) {
      ASSERT_LE(r->reduce_progress.values[i - 1],
                r->reduce_progress.values[i] + 1e-9);
    }
  }
}

TEST(FaultToleranceTest, LostMapOutputsAreReExecuted) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  JobConfig cfg = FaultConfigFor(EngineKind::kSortMerge, 2);
  // Two reducer waves: when the crash hits, the second wave has fetched
  // nothing, so completed maps on the dead node are needed again.
  cfg.reducers_per_node = 4;
  sim::CrashEvent crash;
  crash.node = 1;
  crash.at_map_fraction = 1.0;  // after the whole map phase
  cfg.faults.crashes = {crash};
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.lost_map_outputs, 0u);
  EXPECT_GT(r->metrics.map_task_attempts,
            static_cast<uint64_t>(r->map_tasks));
  EXPECT_EQ(CountsOf(r->outputs),
            ReferenceClickCounts(input, ClickKeyField::kUser));
}

TEST(FaultToleranceTest, CrashWithoutReplicationFailsTheJob) {
  const ChunkStore input = FaultInput(/*replication=*/1);
  JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 1);
  cfg.faults.crashes = {CrashAtHalfMaps(2)};
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  // The dead node held the only copy of its chunks: no abort, a Status.
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST(FaultToleranceTest, MaxAttemptsExhaustedReturnsStatus) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 2);
  cfg.faults.crashes = {CrashAtHalfMaps(2)};
  cfg.faults.max_attempts = 1;  // killed tasks may not restart
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST(FaultToleranceTest, TransientFetchFailuresRetryAndFinish) {
  const ChunkStore input = FaultInput(/*replication=*/1);
  JobConfig cfg = FaultConfigFor(EngineKind::kMRHash, 1);
  auto clean = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(clean.ok());
  cfg.faults.fetch_failure_rate = 0.4;
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.shuffle_fetch_retries, 0u);
  EXPECT_GT(r->running_time, clean->running_time);
  EXPECT_EQ(CountsOf(r->outputs),
            ReferenceClickCounts(input, ClickKeyField::kUser));
}

TEST(FaultToleranceTest, TransientDiskErrorsRetryAndFinish) {
  const ChunkStore input = FaultInput(/*replication=*/1);
  JobConfig cfg = FaultConfigFor(EngineKind::kSortMerge, 1);
  cfg.reduce_memory_bytes = 16 << 10;  // spill-heavy: plenty of reads
  auto clean = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(clean.ok());
  cfg.faults.disk_error_rate = 0.2;
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.disk_read_retries, 0u);
  // Retried reads may overlap other work, so only require no speedup.
  EXPECT_GE(r->running_time, clean->running_time);
  EXPECT_EQ(CountsOf(r->outputs),
            ReferenceClickCounts(input, ClickKeyField::kUser));
}

TEST(FaultToleranceTest, StragglerTriggersSpeculation) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 2);
  sim::StragglerSpec slow;
  slow.node = 1;
  slow.cpu_factor = 5.0;
  slow.disk_factor = 5.0;
  cfg.faults.stragglers = {slow};
  auto no_spec = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(no_spec.ok());
  EXPECT_EQ(no_spec->metrics.speculative_attempts, 0u);

  cfg.faults.speculative_execution = true;
  auto spec = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_GT(spec->metrics.speculative_attempts, 0u);
  EXPECT_GT(spec->metrics.speculative_wins, 0u);
  // Backups on healthy nodes beat the straggler's copies.
  EXPECT_LT(spec->running_time, no_spec->running_time);
  EXPECT_EQ(CountsOf(spec->outputs),
            ReferenceClickCounts(input, ClickKeyField::kUser));
}

// Same seed + same FaultPlan => byte-identical JobResult, for every
// engine, even with every fault source enabled at once.
TEST(FaultToleranceTest, DeterministicUnderFaults) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  for (EngineKind engine : kAllEngines) {
    JobConfig cfg = FaultConfigFor(engine, 2);
    cfg.faults.crashes = {CrashAtHalfMaps(3)};
    sim::StragglerSpec slow;
    slow.node = 1;
    slow.cpu_factor = 2.0;
    cfg.faults.stragglers = {slow};
    cfg.faults.disk_error_rate = 0.05;
    cfg.faults.fetch_failure_rate = 0.1;
    cfg.faults.speculative_execution = true;

    auto a = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    auto b = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(a.ok()) << EngineKindName(engine) << ": "
                        << a.status().ToString();
    ASSERT_TRUE(b.ok());

    EXPECT_EQ(a->outputs, b->outputs) << EngineKindName(engine);
    EXPECT_DOUBLE_EQ(a->running_time, b->running_time);
    EXPECT_DOUBLE_EQ(a->map_finish_time, b->map_finish_time);
    const JobMetrics& ma = a->metrics;
    const JobMetrics& mb = b->metrics;
    EXPECT_EQ(ma.map_task_attempts, mb.map_task_attempts);
    EXPECT_EQ(ma.reduce_task_attempts, mb.reduce_task_attempts);
    EXPECT_EQ(ma.killed_attempts, mb.killed_attempts);
    EXPECT_EQ(ma.speculative_attempts, mb.speculative_attempts);
    EXPECT_EQ(ma.speculative_wins, mb.speculative_wins);
    EXPECT_EQ(ma.lost_map_outputs, mb.lost_map_outputs);
    EXPECT_EQ(ma.shuffle_fetch_retries, mb.shuffle_fetch_retries);
    EXPECT_EQ(ma.disk_read_retries, mb.disk_read_retries);
    EXPECT_EQ(ma.recovery_bytes, mb.recovery_bytes);
    EXPECT_DOUBLE_EQ(ma.wasted_cpu_s, mb.wasted_cpu_s);
    EXPECT_EQ(a->reduce_progress.times, b->reduce_progress.times);
    EXPECT_EQ(a->reduce_progress.values, b->reduce_progress.values);
    EXPECT_EQ(a->map_progress.times, b->map_progress.times);
    EXPECT_EQ(a->cpu_util.values, b->cpu_util.values);
  }
}

// A different seed moves the transient-fault schedule.
TEST(FaultToleranceTest, SeedMovesTheFaultSchedule) {
  const ChunkStore input = FaultInput(/*replication=*/1);
  JobConfig cfg = FaultConfigFor(EngineKind::kMRHash, 1);
  cfg.faults.fetch_failure_rate = 0.3;
  auto a = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  cfg.seed = 777;
  auto b = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different schedule, same (sorted) answer.
  EXPECT_NE(a->running_time, b->running_time);
  auto sorted = [](std::vector<Record> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a->outputs), sorted(b->outputs));
}

}  // namespace
}  // namespace onepass
