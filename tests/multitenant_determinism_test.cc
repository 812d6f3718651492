// Determinism regression for the multi-tenant JobManager: a whole
// submission batch — mixed tenants, staggered arrivals, admission
// rejections, faults, a job that fails while others run, preemption —
// must produce a byte-identical ManagerResult at data_plane_threads = 1,
// 2, and 8.
// The host thread count only parallelizes each job's data plane; every
// scheduling decision lives in the simulated time plane, whose event
// order is fixed by (time, stream, seq).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/mr/job_manager.h"
#include "src/sim/timeline.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

// Every deterministic field of a ManagerResult, rendered exactly.
std::string Fingerprint(const ManagerResult& r) {
  std::string fp;
  char buf[256];
  for (size_t j = 0; j < r.jobs.size(); ++j) {
    const JobOutcome& o = r.jobs[j];
    std::snprintf(buf, sizeof(buf),
                  "job %zu %s arrival=%.17g start=%.17g finish=%.17g "
                  "status=%d\n",
                  j, std::string(JobOutcomeStateName(o.state)).c_str(),
                  o.arrival_time, o.start_time, o.finish_time,
                  static_cast<int>(o.status.code()));
    fp += buf;
    if (o.state == JobOutcomeState::kCompleted) {
      std::snprintf(buf, sizeof(buf),
                    "  running_time=%.17g map_finish=%.17g outputs=%zu\n",
                    o.result.running_time, o.result.map_finish_time,
                    o.result.outputs.size());
      fp += buf;
      fp += o.result.metrics.Serialize();
      for (const Record& rec : o.result.outputs) {
        fp += rec.key;
        fp += '=';
        fp += rec.value;
        fp += ';';
      }
      fp += '\n';
    }
  }
  for (const TenantStats& t : r.tenants) {
    std::snprintf(buf, sizeof(buf),
                  "tenant %s sub=%d done=%d rej=%d fail=%d "
                  "mean=%.17g p50=%.17g p99=%.17g max=%.17g\n",
                  t.name.c_str(), t.jobs_submitted, t.jobs_completed,
                  t.jobs_rejected, t.jobs_failed,
                  t.mean_latency_s, t.p50_latency_s, t.p99_latency_s,
                  t.max_latency_s);
    fp += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "makespan=%.17g avg_util=%.17g preempt=%llu rejected=%d\n",
                r.makespan, r.avg_cpu_utilization,
                static_cast<unsigned long long>(r.preemptions),
                r.rejected_jobs);
  fp += buf;
  AppendBinned(&fp, "cpu_util", r.cpu_util);
  return fp;
}

ChunkStore DetInput() {
  ClickStreamConfig clicks;
  clicks.num_clicks = 12'000;
  clicks.num_users = 600;
  clicks.seed = 99;
  ChunkStore input(32 << 10, 4, 2);
  GenerateClickStream(clicks, &input);
  return input;
}

JobConfig DetJobConfig(bool faulted) {
  JobConfig cfg;
  cfg.engine = EngineKind::kMRHash;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 32 << 10;
  cfg.map_buffer_bytes = 128 << 10;
  cfg.reduce_memory_bytes = 64 << 10;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  cfg.replication = 2;
  if (faulted) {
    sim::StragglerSpec slow;
    slow.node = 1;
    slow.cpu_factor = 2.0;
    cfg.faults.stragglers = {slow};
    cfg.faults.fetch_failure_rate = 0.1;
    cfg.faults.disk_error_rate = 0.02;
    cfg.faults.speculative_execution = true;
  }
  return cfg;
}

// The faulted batch's job that runs out of attempts.
constexpr size_t kFailingJob = 4;

// A batch stressing every manager path at once: two tenants, staggered
// arrivals, a queue that overflows (rejection), fair share with
// preemption on and, when faulted, a job that fails while others run.
std::vector<JobSubmission> DetBatch(const ChunkStore& input, bool faulted) {
  const JobConfig cfg = DetJobConfig(faulted);
  std::vector<JobSubmission> subs;
  auto add = [&](int tenant, double arrival) {
    JobSubmission sub;
    sub.spec = ClickCountJob();
    sub.config = cfg;
    sub.config.seed += subs.size();  // distinct fault schedules per job
    sub.input = &input;
    sub.tenant = tenant;
    sub.arrival_time = arrival;
    subs.push_back(std::move(sub));
  };
  add(0, 0.0);
  add(0, 0.0);
  add(1, 0.05);
  add(1, 0.1);
  add(0, 0.1);
  add(1, 0.1);
  add(0, 0.1);  // overflows the 2-deep queue at burst peak
  add(1, 1.5);
  if (faulted) {
    // One attempt per task and a crash during the shuffle: the crash
    // kills attempts the job cannot restart, so it fails mid-replay while
    // other jobs run. (PrepareJob's provisional replay has no reduces, so
    // a shuffle-fraction crash never fires there; a map-fraction one would
    // fail the job at dispatch, before its Replayer exists.)
    sim::CrashEvent crash;
    crash.node = 2;
    crash.at_reduce_fraction = 0.3;
    subs[kFailingJob].config.faults.max_attempts = 1;
    subs[kFailingJob].config.faults.crashes = {crash};
  }
  return subs;
}

void ExpectFailingJobFailed(const ManagerResult& r) {
  const JobOutcome& o = r.jobs[kFailingJob];
  EXPECT_EQ(o.state, JobOutcomeState::kFailed) << o.status.ToString();
  EXPECT_TRUE(o.status.IsResourceExhausted()) << o.status.ToString();
  // It ran before it failed: its Replayer outlives the failure until the
  // batch drains.
  EXPECT_GT(o.finish_time, o.start_time);
}

TEST(MultiTenantDeterminismTest, IdenticalAcrossThreadCounts) {
  const ChunkStore input = DetInput();
  for (bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "clean");
    ManagerConfig mc;
    mc.cluster = DetJobConfig(faulted).cluster;
    mc.policy = SchedulePolicy::kFairShare;
    mc.max_concurrent_jobs = 3;
    mc.max_queued_jobs = 2;
    mc.tenants = {{"batch", 1.0}, {"interactive", 3.0}};
    mc.timeline_bin_s = 5.0;

    std::string fp1;
    for (int threads : {1, 2, 8}) {
      std::vector<JobSubmission> subs = DetBatch(input, faulted);
      for (JobSubmission& sub : subs) {
        sub.config.data_plane_threads = threads;
      }
      auto mr = JobManager::Run(mc, subs);
      ASSERT_TRUE(mr.ok()) << mr.status().ToString();
      const std::string fp = Fingerprint(*mr);
      // The batch actually exercises the interesting paths.
      EXPECT_GT(mr->rejected_jobs, 0);
      if (faulted) ExpectFailingJobFailed(*mr);
      if (threads == 1) {
        fp1 = fp;
      } else {
        EXPECT_EQ(fp, fp1) << "threads=" << threads;
      }
    }
  }
}

// Back-to-back runs of the same batch are bit-identical too (no hidden
// global state in the pool or manager).
TEST(MultiTenantDeterminismTest, RepeatedRunsIdentical) {
  const ChunkStore input = DetInput();
  ManagerConfig mc;
  mc.cluster = DetJobConfig(true).cluster;
  mc.max_concurrent_jobs = 3;
  mc.max_queued_jobs = 2;
  mc.tenants = {{"batch", 1.0}, {"interactive", 3.0}};
  mc.timeline_bin_s = 5.0;

  const std::vector<JobSubmission> subs = DetBatch(input, true);
  auto a = JobManager::Run(mc, subs);
  auto b = JobManager::Run(mc, subs);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectFailingJobFailed(*a);
  ExpectFailingJobFailed(*b);
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
}

}  // namespace
}  // namespace onepass
