// Multi-tenant scheduling under burst overload (DESIGN.md §5.7).
//
// A batch tenant keeps the cluster saturated with long jobs while an
// interactive tenant fires a burst of short jobs into the same
// JobManager. The bench replays the identical submission schedule twice:
//
//   FIFO       — strict arrival order, no preemption (the historical
//                "one job owns the world" behavior, serialized);
//   fair-share — interactive weighted 4:1 with map preemption on.
//
// It reports per-tenant p50/p99/max job latency (sojourn: finish -
// arrival), cluster CPU utilization, and preemption counts, then prints
// a PASS/FAIL line: fair share must cut the interactive p99 by at least
// 2x. Two more sections exercise graceful degradation (a burst into a
// tiny admission queue must reject immediately with a typed status,
// never hang) and the solo-identity contract (one managed FIFO job is
// byte-identical to LocalCluster::RunJob). Exits 1 when a run fails or
// any of the three lines reads FAIL.
//
// Usage: bench_multitenant [--scale=S]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/mr/job_manager.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

ChunkStore MakeInput(int num_clicks, uint64_t seed) {
  ClickStreamConfig clicks;
  clicks.num_clicks = num_clicks;
  clicks.num_users = num_clicks / 20;
  clicks.seed = seed;
  ChunkStore input(32 << 10, 4, 2);
  GenerateClickStream(clicks, &input);
  return input;
}

JobConfig TenantJobConfig() {
  JobConfig cfg;
  cfg.engine = EngineKind::kIncHash;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 32 << 10;
  cfg.map_buffer_bytes = 128 << 10;
  cfg.reduce_memory_bytes = 64 << 10;
  cfg.map_side_combine = true;
  cfg.expected_keys_per_reducer = 200;
  cfg.expected_bytes_per_reducer = 64 << 10;
  cfg.replication = 2;
  return cfg;
}

constexpr int kBatchTenant = 0;
constexpr int kInteractiveTenant = 1;

// Six long batch jobs saturating the cluster from t=0, then a burst of
// twelve short interactive jobs landing while the batch work is deep in
// its map phase.
std::vector<JobSubmission> MakeSchedule(const ChunkStore& batch_input,
                                        const ChunkStore& inter_input) {
  std::vector<JobSubmission> subs;
  auto add = [&](int tenant, const ChunkStore& input, double arrival) {
    JobSubmission sub;
    sub.spec = ClickCountJob();
    sub.config = TenantJobConfig();
    sub.config.seed = 1000 + subs.size();
    sub.input = &input;
    sub.tenant = tenant;
    sub.arrival_time = arrival;
    subs.push_back(std::move(sub));
  };
  for (int j = 0; j < 6; ++j) {
    add(kBatchTenant, batch_input, 0.05 * j);
  }
  for (int j = 0; j < 12; ++j) {
    add(kInteractiveTenant, inter_input, 0.3 + 0.1 * j);
  }
  return subs;
}

ManagerConfig BaseManagerConfig() {
  ManagerConfig mc;
  mc.cluster = TenantJobConfig().cluster;
  mc.max_concurrent_jobs = 18;  // admission wide open for the comparison
  mc.max_queued_jobs = 18;
  mc.tenants = {{"batch", 1.0}, {"interactive", 4.0}};
  mc.timeline_bin_s = 1.0;
  return mc;
}

void PrintTenantRows(const char* policy, const ManagerResult& r) {
  for (const TenantStats& t : r.tenants) {
    std::printf("%-10s %-12s %5d %5d %8.2f %8.2f %8.2f %8.2f\n", policy,
                t.name.c_str(), t.jobs_completed, t.jobs_rejected,
                t.mean_latency_s, t.p50_latency_s, t.p99_latency_s,
                t.max_latency_s);
  }
}

int RunBench(double scale) {
  const ChunkStore batch_input =
      MakeInput(static_cast<int>(50'000 * scale), 11);
  const ChunkStore inter_input =
      MakeInput(static_cast<int>(5'000 * scale), 12);
  const std::vector<JobSubmission> subs =
      MakeSchedule(batch_input, inter_input);

  std::printf("--- burst of 12 interactive jobs vs 6 batch jobs ---\n");
  std::printf("%-10s %-12s %5s %5s %8s %8s %8s %8s\n", "policy", "tenant",
              "done", "rej", "mean_s", "p50_s", "p99_s", "max_s");

  ManagerConfig fifo_cfg = BaseManagerConfig();
  fifo_cfg.policy = SchedulePolicy::kFifo;
  fifo_cfg.preemption = false;
  auto fifo = JobManager::Run(fifo_cfg, subs);
  if (!fifo.ok()) {
    std::fprintf(stderr, "fifo run failed: %s\n",
                 fifo.status().ToString().c_str());
    return 1;
  }
  PrintTenantRows("fifo", *fifo);

  ManagerConfig fair_cfg = BaseManagerConfig();
  fair_cfg.policy = SchedulePolicy::kFairShare;
  fair_cfg.preemption = true;
  auto fair = JobManager::Run(fair_cfg, subs);
  if (!fair.ok()) {
    std::fprintf(stderr, "fair-share run failed: %s\n",
                 fair.status().ToString().c_str());
    return 1;
  }
  PrintTenantRows("fair", *fair);

  std::printf("\n%-10s %9s %9s %10s\n", "policy", "makespan", "avg_util",
              "preempts");
  std::printf("%-10s %9.2f %8.1f%% %10llu\n", "fifo", fifo->makespan,
              100.0 * fifo->avg_cpu_utilization,
              static_cast<unsigned long long>(fifo->preemptions));
  std::printf("%-10s %9.2f %8.1f%% %10llu\n", "fair", fair->makespan,
              100.0 * fair->avg_cpu_utilization,
              static_cast<unsigned long long>(fair->preemptions));

  const double fifo_p99 =
      fifo->tenants[kInteractiveTenant].p99_latency_s;
  const double fair_p99 =
      fair->tenants[kInteractiveTenant].p99_latency_s;
  const double speedup = fair_p99 > 0 ? fifo_p99 / fair_p99 : 0;
  std::printf("\ninteractive p99: fifo=%.2fs fair=%.2fs speedup=%.2fx\n",
              fifo_p99, fair_p99, speedup);
  const bool p99_ok = speedup >= 2.0;
  std::printf("fair-share p99 >= 2x better than fifo: %s\n",
              p99_ok ? "PASS" : "FAIL");

  // --- graceful degradation: burst into a tiny admission queue ---
  ManagerConfig tight = BaseManagerConfig();
  tight.max_concurrent_jobs = 2;
  tight.max_queued_jobs = 2;
  auto overload = JobManager::Run(tight, subs);
  if (!overload.ok()) {
    std::fprintf(stderr, "overload run failed: %s\n",
                 overload.status().ToString().c_str());
    return 1;
  }
  int typed = 0, hung = 0;
  for (const JobOutcome& o : overload->jobs) {
    if (o.state == JobOutcomeState::kRejected && o.status.IsUnavailable() &&
        o.finish_time == o.arrival_time) {
      ++typed;
    }
    if (o.finish_time < 0) ++hung;
  }
  std::printf(
      "\noverload (2 running + 2 queued): %d/%zu rejected immediately "
      "with Unavailable, %d hung\n",
      typed, overload->jobs.size(), hung);
  const bool overload_ok = overload->rejected_jobs == typed &&
                           overload->rejected_jobs > 0 && hung == 0;
  std::printf("admission rejects typed and immediate: %s\n",
              overload_ok ? "PASS" : "FAIL");

  // --- solo identity: one managed FIFO job == LocalCluster::RunJob ---
  JobConfig solo_cfg = TenantJobConfig();
  solo_cfg.collect_outputs = true;
  auto solo = LocalCluster::RunJob(ClickCountJob(), solo_cfg, inter_input);
  ManagerConfig one = BaseManagerConfig();
  one.policy = SchedulePolicy::kFifo;
  one.preemption = false;
  JobSubmission sub;
  sub.spec = ClickCountJob();
  sub.config = solo_cfg;
  sub.input = &inter_input;
  auto managed = JobManager::Run(one, {sub});
  bool solo_ok = solo.ok() && managed.ok() &&
                 managed->jobs[0].state == JobOutcomeState::kCompleted;
  if (solo_ok) {
    const JobResult& a = *solo;
    const JobResult& b = managed->jobs[0].result;
    solo_ok = a.outputs == b.outputs &&
              a.metrics.Serialize() == b.metrics.Serialize() &&
              a.running_time == b.running_time &&
              a.map_finish_time == b.map_finish_time;
  }
  std::printf("managed job byte-identical to solo RunJob: %s\n",
              solo_ok ? "PASS" : "FAIL");

  return p99_ok && overload_ok && solo_ok ? 0 : 1;
}

}  // namespace
}  // namespace onepass

int main(int argc, char** argv) {
  const onepass::bench::Flags flags = onepass::bench::ParseFlags(argc, argv);
  return onepass::RunBench(flags.scale);
}
