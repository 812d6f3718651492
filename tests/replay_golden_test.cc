// Time-plane schedule goldens: a matrix of faulted, checkpointed,
// node-combined, chained and multi-tenant replays, one line per scenario
// in tests/golden/replay_schedules.txt. A line holds the scenario's
// running time and headline attempt counters plus a 64-bit hash of every
// deterministic JobResult field (tests/test_fingerprint.h's rendering,
// doubles at %.9g as JobMetrics::Serialize prints them, so one golden
// holds at every optimization level). Any change to when or where an
// attempt runs — the attempt budget, the combine lineage, the speculation
// thresholds and tick, crash handling, preemption — moves a row.
//
// To regenerate after an intentional schedule change:
//   UPDATE_GOLDENS=1 ./replay_golden_test   # then review the diff

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/mr/job_chain.h"
#include "src/mr/job_manager.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/iterative.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

constexpr int kDigits = 9;
constexpr int kNodes = 5;
constexpr uint64_t kChunkBytes = 32 << 10;

constexpr EngineKind kAllEngines[] = {EngineKind::kSortMerge,
                                      EngineKind::kMRHash,
                                      EngineKind::kIncHash,
                                      EngineKind::kDincHash};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

ClickStreamConfig Clicks() {
  ClickStreamConfig clicks;
  clicks.num_clicks = 30'000;
  clicks.num_users = 1'200;
  clicks.user_skew = 0.8;
  clicks.seed = 23;
  return clicks;
}

ChunkStore ClickInput(int replication) {
  ChunkStore input(kChunkBytes, kNodes, replication);
  GenerateClickStream(Clicks(), &input);
  return input;
}

JobConfig BaseConfig(EngineKind engine, int replication) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = kNodes;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = kChunkBytes;
  cfg.map_buffer_bytes = 128 << 10;
  cfg.reduce_memory_bytes = 64 << 10;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  cfg.replication = replication;
  cfg.data_plane_threads = 4;
  return cfg;
}

sim::CrashEvent CrashAtMaps(int node, double fraction) {
  sim::CrashEvent c;
  c.node = node;
  c.at_map_fraction = fraction;
  return c;
}

sim::CrashEvent CrashInShuffle(int node, double fraction) {
  sim::CrashEvent c;
  c.node = node;
  c.at_reduce_fraction = fraction;
  return c;
}

sim::CrashEvent CrashAt(int node, double time) {
  sim::CrashEvent c;
  c.node = node;
  c.time = time;
  return c;
}

sim::StragglerSpec Straggler(int node, double cpu, double disk) {
  sim::StragglerSpec s;
  s.node = node;
  s.cpu_factor = cpu;
  s.disk_factor = disk;
  return s;
}

std::string StatusRow(const std::string& name, const Status& s) {
  return name + " status=" + s.ToString();
}

std::string JobRow(const std::string& name, const JobResult& r) {
  const JobMetrics& m = r.metrics;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s running=%.9g attempts=%llu/%llu killed=%llu preempted=%llu "
      "spec=%llu/%llu lost=%llu crashes=%llu restored=%llu hash=%016llx",
      name.c_str(), r.running_time,
      static_cast<unsigned long long>(m.map_task_attempts),
      static_cast<unsigned long long>(m.reduce_task_attempts),
      static_cast<unsigned long long>(m.killed_attempts),
      static_cast<unsigned long long>(m.preempted_attempts),
      static_cast<unsigned long long>(m.speculative_attempts),
      static_cast<unsigned long long>(m.speculative_wins),
      static_cast<unsigned long long>(m.lost_map_outputs),
      static_cast<unsigned long long>(m.node_crashes),
      static_cast<unsigned long long>(m.checkpoints_restored),
      static_cast<unsigned long long>(Fnv1a(Fingerprint(r, kDigits))));
  return buf;
}

std::string SoloRow(const std::string& name, const JobSpec& spec,
                    const JobConfig& cfg, const ChunkStore& input) {
  auto r = LocalCluster::RunJob(spec, cfg, input);
  return r.ok() ? JobRow(name, *r) : StatusRow(name, r.status());
}

// The per-engine scenarios: recovery, checkpoint restore, timed crashes,
// node-combine lineage, budget exhaustion and an order-sensitive reducer.
void AppendEngineRows(EngineKind engine, const ChunkStore& repl2,
                      const ChunkStore& repl3, std::vector<std::string>* rows) {
  const std::string tag = EngineTag(engine);
  {
    JobConfig cfg = BaseConfig(engine, 2);
    cfg.faults.crashes = {CrashAtMaps(3, 0.5)};
    cfg.faults.stragglers = {Straggler(1, 4.0, 3.0)};
    cfg.faults.speculative_execution = true;
    cfg.faults.fetch_failure_rate = 0.1;
    cfg.faults.disk_error_rate = 0.05;
    rows->push_back(SoloRow(tag + "/faulted", ClickCountJob(), cfg, repl2));
  }
  {
    JobConfig cfg = BaseConfig(engine, 2);
    cfg.faults.crashes = {CrashInShuffle(2, 0.9)};
    cfg.checkpoint_interval_segments = 2;
    cfg.block_codec = BlockCodecKind::kLz;
    cfg.faults.corruption_rate = 0.02;
    rows->push_back(
        SoloRow(tag + "/checkpoint_crash90", ClickCountJob(), cfg, repl2));
  }
  {
    JobConfig cfg = BaseConfig(engine, 2);
    cfg.faults.crashes = {CrashAt(3, 0.6)};
    cfg.faults.stragglers = {Straggler(0, 4.0, 1.0), Straggler(2, 1.0, 4.0)};
    cfg.faults.speculative_execution = true;
    rows->push_back(
        SoloRow(tag + "/timed_crash_spec", ClickCountJob(), cfg, repl2));
  }
  {
    JobConfig cfg = BaseConfig(engine, 3);
    cfg.combine_scope = CombineScope::kNode;
    cfg.faults.crashes = {CrashAtMaps(2, 0.5), CrashInShuffle(1, 0.3)};
    rows->push_back(
        SoloRow(tag + "/node_combine_crashes", ClickCountJob(), cfg, repl3));
  }
  {
    JobConfig cfg = BaseConfig(engine, 2);
    cfg.faults.max_attempts = 1;
    cfg.faults.crashes = {CrashAtMaps(1, 0.3)};
    rows->push_back(
        SoloRow(tag + "/budget_exhausted", ClickCountJob(), cfg, repl2));
  }
  {
    JobConfig cfg = BaseConfig(engine, 2);
    cfg.map_side_combine = false;
    cfg.faults.crashes = {CrashInShuffle(3, 0.5)};
    cfg.checkpoint_interval_segments = 2;
    rows->push_back(SoloRow(tag + "/sessionize_crash_ckpt",
                            SessionizationJob(512), cfg, repl2));
  }
}

// A three-stage resident chain whose first stage loses a node mid-map:
// later stages run pinned to the first stage's surviving placement.
void AppendChainRows(EngineKind engine, const GrowingLog& log,
                     std::vector<std::string>* rows) {
  const std::string name = "chain/" + EngineTag(engine);
  JobConfig cfg = BaseConfig(engine, 2);
  cfg.shuffle_mode = ShuffleMode::kResident;
  JobConfig crashed = cfg;
  crashed.faults.crashes = {CrashAtMaps(1, 0.3)};
  std::vector<ChainStage> stages;
  for (size_t i = 0; i < log.deltas.size(); ++i) {
    stages.push_back(
        {ClickCountJob(), i == 0 ? crashed : cfg, log.deltas[i].get()});
  }
  auto chain = RunJobChain(stages);
  if (!chain.ok()) {
    rows->push_back(StatusRow(name, chain.status()));
    return;
  }
  for (size_t i = 0; i < chain->iterations.size(); ++i) {
    rows->push_back(JobRow(name + "/stage" + std::to_string(i + 1),
                           chain->iterations[i]));
  }
}

std::string ManagerFingerprint(const ManagerResult& r) {
  std::string fp;
  char buf[256];
  for (size_t j = 0; j < r.jobs.size(); ++j) {
    const JobOutcome& o = r.jobs[j];
    std::snprintf(buf, sizeof(buf),
                  "job %zu %s arrival=%.9g start=%.9g finish=%.9g "
                  "status=%d\n",
                  j, std::string(JobOutcomeStateName(o.state)).c_str(),
                  o.arrival_time, o.start_time, o.finish_time,
                  static_cast<int>(o.status.code()));
    fp += buf;
    if (o.state == JobOutcomeState::kCompleted) {
      fp += Fingerprint(o.result, kDigits);
    }
  }
  for (const TenantStats& t : r.tenants) {
    std::snprintf(buf, sizeof(buf),
                  "tenant %s sub=%d done=%d rej=%d fail=%d "
                  "mean=%.9g p50=%.9g p99=%.9g max=%.9g\n",
                  t.name.c_str(), t.jobs_submitted, t.jobs_completed,
                  t.jobs_rejected, t.jobs_failed, t.mean_latency_s,
                  t.p50_latency_s, t.p99_latency_s, t.max_latency_s);
    fp += buf;
  }
  std::snprintf(buf, sizeof(buf), "makespan=%.9g avg_util=%.9g\n",
                r.makespan, r.avg_cpu_utilization);
  fp += buf;
  AppendBinned(&fp, "cpu_util", r.cpu_util, kDigits);
  return fp;
}

// A two-tenant batch on a shared pool: fair share with preemption, a
// rejection at the burst peak and, when faulted, a job that exhausts its
// attempt budget and fails. The clean batch runs every job at
// max_attempts = 1, so an evicted map finishes only because preemptions
// are budget-exempt.
std::string ManagerRow(const std::string& name, const ChunkStore& input,
                       bool faulted) {
  JobConfig cfg = BaseConfig(EngineKind::kMRHash, 2);
  if (faulted) {
    cfg.faults.stragglers = {Straggler(1, 2.0, 1.0)};
    cfg.faults.fetch_failure_rate = 0.1;
    cfg.faults.disk_error_rate = 0.02;
    cfg.faults.speculative_execution = true;
  } else {
    cfg.faults.max_attempts = 1;
  }
  ManagerConfig mc;
  mc.cluster = cfg.cluster;
  mc.policy = SchedulePolicy::kFairShare;
  mc.preemption = true;
  mc.max_concurrent_jobs = 3;
  mc.max_queued_jobs = 2;
  mc.tenants = {{"batch", 1.0}, {"interactive", 3.0}};
  mc.timeline_bin_s = 0.5;

  std::vector<JobSubmission> subs;
  auto add = [&](int tenant, double arrival) {
    JobSubmission sub;
    sub.spec = ClickCountJob();
    sub.config = cfg;
    sub.config.seed += subs.size();
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
  add(0, 0.1);  // overflows the 2-deep queue
  add(1, 1.5);
  if (faulted) {
    // Loses its attempt budget to a crash and fails.
    subs[4].config.faults.max_attempts = 1;
    subs[4].config.faults.crashes = {CrashAtMaps(2, 0.3)};
  }
  auto mr = JobManager::Run(mc, subs);
  if (!mr.ok()) return StatusRow(name, mr.status());
  int done = 0, failed = 0;
  for (const JobOutcome& o : mr->jobs) {
    done += o.state == JobOutcomeState::kCompleted ? 1 : 0;
    failed += o.state == JobOutcomeState::kFailed ? 1 : 0;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s makespan=%.9g done=%d rejected=%d failed=%d "
                "preemptions=%llu hash=%016llx",
                name.c_str(), mr->makespan, done, mr->rejected_jobs, failed,
                static_cast<unsigned long long>(mr->preemptions),
                static_cast<unsigned long long>(
                    Fnv1a(ManagerFingerprint(*mr))));
  return buf;
}

std::string ScheduleMatrix() {
  const ChunkStore repl2 = ClickInput(2);
  const ChunkStore repl3 = ClickInput(3);
  std::vector<std::string> rows;
  for (EngineKind engine : kAllEngines) {
    AppendEngineRows(engine, repl2, repl3, &rows);
  }
  {
    JobConfig cfg = BaseConfig(EngineKind::kSortMerge, 2);
    cfg.pipelining = true;
    cfg.faults.crashes = {CrashAt(2, 0.5)};
    rows.push_back(
        SoloRow("sort_merge/pipelined_timed_crash", ClickCountJob(), cfg,
                repl2));
  }
  const GrowingLog log =
      MakeGrowingClickLog(Clicks(), /*iterations=*/3,
                          /*growth_fraction=*/0.2, kChunkBytes, kNodes,
                          /*replication=*/2);
  AppendChainRows(EngineKind::kIncHash, log, &rows);
  AppendChainRows(EngineKind::kMRHash, log, &rows);
  rows.push_back(ManagerRow("manager/clean", repl2, /*faulted=*/false));
  rows.push_back(ManagerRow("manager/faulted", repl2, /*faulted=*/true));
  std::string out;
  for (const std::string& row : rows) {
    out += row;
    out += '\n';
  }
  return out;
}

TEST(ReplayGolden, ScheduleMatrixMatchesGolden) {
  const std::string path =
      std::string(ONEPASS_TESTS_DIR) + "/golden/replay_schedules.txt";
  const std::string got = ScheduleMatrix();
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run with UPDATE_GOLDENS=1 to create it, then check it in";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "replay schedules diverge from " << path
      << " — if intentional, regenerate with UPDATE_GOLDENS=1 and review";
}

}  // namespace
}  // namespace onepass
