// Multi-tenant JobManager behavior (DESIGN.md §5.7): admission control
// rejects with a typed Status instead of hanging, a single managed job is
// byte-identical to the solo RunJob schedule, FIFO respects arrival
// order, fair share favors heavier tenants, and a late deficit tenant
// preempts running maps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/mr/job_manager.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/fault_test_util.h"

namespace onepass {
namespace {

ChunkStore SmallInput(int replication) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 10'000;
  clicks.num_users = 500;
  clicks.seed = 77;
  ChunkStore input(32 << 10, 4, replication);
  GenerateClickStream(clicks, &input);
  return input;
}

ManagerConfig SmallManagerConfig(const JobConfig& job_cfg) {
  ManagerConfig mc;
  mc.cluster = job_cfg.cluster;
  mc.timeline_bin_s = 5.0;
  return mc;
}

JobSubmission Submit(const ChunkStore& input, const JobConfig& cfg,
                     int tenant = 0, double arrival = 0) {
  JobSubmission sub;
  sub.spec = ClickCountJob();
  sub.config = cfg;
  sub.input = &input;
  sub.tenant = tenant;
  sub.arrival_time = arrival;
  return sub;
}

// A single managed job replays on the same substrate as the solo path;
// with FIFO and one tenant the schedule must be the solo schedule.
TEST(JobManagerTest, SingleJobMatchesSoloRunJob) {
  const ChunkStore input = SmallInput(/*replication=*/2);
  JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 2);
  // Exercise the fault machinery too: straggler + transient fetch noise.
  sim::StragglerSpec slow;
  slow.node = 1;
  slow.cpu_factor = 2.0;
  cfg.faults.stragglers = {slow};
  cfg.faults.fetch_failure_rate = 0.1;
  cfg.faults.speculative_execution = true;

  auto solo = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();

  ManagerConfig mc = SmallManagerConfig(cfg);
  mc.policy = SchedulePolicy::kFifo;
  mc.preemption = false;
  auto mr = JobManager::Run(mc, {Submit(input, cfg)});
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  ASSERT_EQ(mr->jobs.size(), 1u);
  const JobOutcome& out = mr->jobs[0];
  ASSERT_EQ(out.state, JobOutcomeState::kCompleted) << out.status.ToString();

  const JobResult& a = *solo;
  const JobResult& b = out.result;
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.metrics.Serialize(), b.metrics.Serialize());
  EXPECT_DOUBLE_EQ(a.running_time, b.running_time);
  EXPECT_DOUBLE_EQ(a.map_finish_time, b.map_finish_time);
  EXPECT_EQ(a.shuffle_from_disk_bytes, b.shuffle_from_disk_bytes);
  EXPECT_EQ(a.map_progress.times, b.map_progress.times);
  EXPECT_EQ(a.map_progress.values, b.map_progress.values);
  EXPECT_EQ(a.reduce_progress.times, b.reduce_progress.times);
  EXPECT_EQ(a.reduce_progress.values, b.reduce_progress.values);
}

TEST(JobManagerTest, SaturationRejectsWithUnavailable) {
  const ChunkStore input = SmallInput(/*replication=*/1);
  const JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 1);
  ManagerConfig mc = SmallManagerConfig(cfg);
  mc.max_concurrent_jobs = 1;
  mc.max_queued_jobs = 1;

  std::vector<JobSubmission> subs;
  for (int j = 0; j < 4; ++j) subs.push_back(Submit(input, cfg));
  auto mr = JobManager::Run(mc, subs);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  ASSERT_EQ(mr->jobs.size(), 4u);

  // Simultaneous arrivals admit in submission order: one runs, one
  // queues, the rest bounce immediately with typed backpressure.
  EXPECT_EQ(mr->jobs[0].state, JobOutcomeState::kCompleted);
  EXPECT_EQ(mr->jobs[1].state, JobOutcomeState::kCompleted);
  for (int j = 2; j < 4; ++j) {
    EXPECT_EQ(mr->jobs[j].state, JobOutcomeState::kRejected);
    EXPECT_TRUE(mr->jobs[j].status.IsUnavailable())
        << mr->jobs[j].status.ToString();
    // Rejection is instantaneous, not a timeout.
    EXPECT_DOUBLE_EQ(mr->jobs[j].finish_time, mr->jobs[j].arrival_time);
    EXPECT_LT(mr->jobs[j].start_time, 0);
  }
  EXPECT_EQ(mr->rejected_jobs, 2);
  EXPECT_EQ(mr->tenants[0].jobs_rejected, 2);
  EXPECT_EQ(mr->tenants[0].jobs_completed, 2);
}

TEST(JobManagerTest, FifoFinishesInArrivalOrder) {
  const ChunkStore input = SmallInput(/*replication=*/1);
  const JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 1);
  ManagerConfig mc = SmallManagerConfig(cfg);
  mc.policy = SchedulePolicy::kFifo;
  mc.preemption = false;
  mc.max_concurrent_jobs = 3;

  std::vector<JobSubmission> subs;
  for (int j = 0; j < 3; ++j) subs.push_back(Submit(input, cfg));
  auto mr = JobManager::Run(mc, subs);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  for (int j = 0; j < 3; ++j) {
    ASSERT_EQ(mr->jobs[j].state, JobOutcomeState::kCompleted)
        << mr->jobs[j].status.ToString();
  }
  EXPECT_LE(mr->jobs[0].finish_time, mr->jobs[1].finish_time);
  EXPECT_LE(mr->jobs[1].finish_time, mr->jobs[2].finish_time);
  EXPECT_EQ(mr->preemptions, 0u);
}

// Two tenants submit identical work; the weight-2 tenant should hold
// about twice the slots and so finish sooner on average.
TEST(JobManagerTest, WeightedFairShareFavorsHeavyTenant) {
  const ChunkStore input = SmallInput(/*replication=*/1);
  const JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 1);
  ManagerConfig mc = SmallManagerConfig(cfg);
  mc.policy = SchedulePolicy::kFairShare;
  mc.preemption = false;
  mc.max_concurrent_jobs = 6;
  mc.tenants = {{"light", 1.0}, {"heavy", 2.0}};

  std::vector<JobSubmission> subs;
  for (int j = 0; j < 3; ++j) subs.push_back(Submit(input, cfg, /*tenant=*/0));
  for (int j = 0; j < 3; ++j) subs.push_back(Submit(input, cfg, /*tenant=*/1));
  auto mr = JobManager::Run(mc, subs);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  ASSERT_EQ(mr->tenants.size(), 2u);
  EXPECT_EQ(mr->tenants[0].jobs_completed, 3);
  EXPECT_EQ(mr->tenants[1].jobs_completed, 3);
  EXPECT_LT(mr->tenants[1].mean_latency_s, mr->tenants[0].mean_latency_s);
}

TEST(JobManagerTest, ValidatesSubmissions) {
  const ChunkStore input = SmallInput(/*replication=*/1);
  const JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 1);
  ManagerConfig mc = SmallManagerConfig(cfg);

  {
    JobSubmission sub = Submit(input, cfg);
    sub.config.cluster.nodes = 8;  // not the manager's cluster
    auto mr = JobManager::Run(mc, {sub});
    ASSERT_FALSE(mr.ok());
    EXPECT_TRUE(mr.status().IsInvalidArgument()) << mr.status().ToString();
  }
  {
    JobSubmission sub = Submit(input, cfg, /*tenant=*/3);
    auto mr = JobManager::Run(mc, {sub});
    ASSERT_FALSE(mr.ok());
    EXPECT_TRUE(mr.status().IsInvalidArgument());
  }
  {
    JobSubmission sub = Submit(input, cfg);
    sub.input = nullptr;
    auto mr = JobManager::Run(mc, {sub});
    ASSERT_FALSE(mr.ok());
    EXPECT_TRUE(mr.status().IsInvalidArgument());
  }
  {
    ManagerConfig bad = mc;
    bad.tenants = {{"t", -1.0}};
    auto mr = JobManager::Run(bad, {Submit(input, cfg)});
    ASSERT_FALSE(mr.ok());
    EXPECT_TRUE(mr.status().IsInvalidArgument());
  }
  // 1e-12 passes the batch gate but would need ~1e12 bins per series.
  for (const double bin : {0.0, -1.0, std::nan(""), 1e-12}) {
    ManagerConfig bad = mc;
    bad.timeline_bin_s = bin;
    auto mr = JobManager::Run(bad, {Submit(input, cfg)});
    ASSERT_FALSE(mr.ok()) << bin;
    EXPECT_TRUE(mr.status().IsInvalidArgument()) << bin;
  }
}

// A latecomer from a deficit tenant evicts running maps of the tenant
// hogging the cluster instead of waiting for natural slot churn.
TEST(JobManagerTest, PreemptionHelpsLateArrival) {
  const ChunkStore input = SmallInput(/*replication=*/1);
  const JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 1);
  ManagerConfig mc = SmallManagerConfig(cfg);
  mc.policy = SchedulePolicy::kFairShare;
  mc.preemption = true;
  mc.max_concurrent_jobs = 4;
  mc.tenants = {{"batch", 1.0}, {"interactive", 4.0}};

  std::vector<JobSubmission> subs;
  for (int j = 0; j < 2; ++j) subs.push_back(Submit(input, cfg, /*tenant=*/0));
  // Mid map phase of the batch jobs (a job is ~0.35s on this cluster).
  subs.push_back(Submit(input, cfg, /*tenant=*/1, /*arrival=*/0.1));
  auto mr = JobManager::Run(mc, subs);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  for (const JobOutcome& out : mr->jobs) {
    ASSERT_EQ(out.state, JobOutcomeState::kCompleted)
        << out.status.ToString();
  }
  EXPECT_GT(mr->preemptions, 0u);
  // Evicted attempts rerun but are not charged against their budget.
  EXPECT_GT(mr->jobs[0].result.metrics.preempted_attempts +
                mr->jobs[1].result.metrics.preempted_attempts,
            0u);

  ManagerConfig no_preempt = mc;
  no_preempt.preemption = false;
  auto base = JobManager::Run(no_preempt, subs);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->preemptions, 0u);
  // (A single short interactive job can still finish later with
  // preemption on — evicted batch maps rerun and contend during its
  // shuffle — so per-job latency is asserted on sustained bursts in
  // bench_multitenant, not here.)
}

// A job whose attempt budget runs out in the map phase fails in its
// replay, after holding slots, not at the instant it was dispatched.
TEST(JobManagerTest, MapPhaseBudgetFailureTakesSimulatedTime) {
  const ChunkStore input = SmallInput(/*replication=*/2);
  JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 2);
  cfg.faults.max_attempts = 1;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.3});
  auto mr = JobManager::Run(SmallManagerConfig(cfg), {Submit(input, cfg)});
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  const JobOutcome& out = mr->jobs[0];
  EXPECT_EQ(out.state, JobOutcomeState::kFailed);
  EXPECT_TRUE(out.status.IsResourceExhausted()) << out.status.ToString();
  EXPECT_GT(out.finish_time, out.start_time);
}

TEST(JobManagerTest, OutcomeStateNames) {
  EXPECT_EQ(JobOutcomeStateName(JobOutcomeState::kCompleted), "completed");
  EXPECT_EQ(JobOutcomeStateName(JobOutcomeState::kRejected), "rejected");
  EXPECT_EQ(JobOutcomeStateName(JobOutcomeState::kFailed), "failed");
}

}  // namespace
}  // namespace onepass
