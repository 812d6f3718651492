// Fault injection & recovery: the cost of losing a node mid-job and of a
// straggler, per engine (no counterpart figure in the paper, which ran on
// a healthy cluster; the scenarios follow its Hadoop fault model).
//
// Scenario A — node crash at 50% of the map phase, replication 2:
//   every engine must produce the reference answer after re-executing the
//   dead node's tasks (and any completed maps whose outputs were lost).
//   The engines pay differently: SM re-reads and re-sorts spilled runs
//   (recovery bytes), INC/DINC re-run accumulated reduce state from
//   scratch (wasted CPU seconds).
//
// Scenario B — one node with CPU and disk 4x slower, speculative
//   execution on vs off: backups on healthy nodes should cut the tail.
//
// Exits 1 when a job fails or a row's ref? column reads NO.
//
// Usage: bench_faults [--scale=S]

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_common.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"

namespace onepass {
namespace {

constexpr EngineKind kEngines[] = {EngineKind::kSortMerge,
                                   EngineKind::kMRHash, EngineKind::kIncHash,
                                   EngineKind::kDincHash};

JobConfig FaultyConfig(EngineKind kind) {
  JobConfig cfg = bench::ScaledJobConfig(kind);
  cfg.map_side_combine = true;
  cfg.merge_factor = 32;
  cfg.expected_keys_per_reducer = 1200;
  cfg.expected_bytes_per_reducer = 2 << 20;
  cfg.collect_outputs = true;
  cfg.replication = 2;
  return cfg;
}

// Each scenario returns false when a job failed or a row read NO.
bool CrashScenario(const ChunkStore& input,
                   const std::map<std::string, uint64_t>& expected) {
  std::printf(
      "\n--- A: crash node 3 at 50%% of maps (replication=2) ---\n");
  std::printf("%-9s %9s %9s %9s %6s %6s %5s %9s %8s %4s\n", "engine",
              "clean_s", "crash_s", "overhead", "m_att", "killed", "lost",
              "recov_MB", "waste_s", "ref?");

  std::vector<std::string> names;
  std::vector<sim::StepSeries> series;
  bool all_ok = true;
  for (EngineKind kind : kEngines) {
    JobConfig cfg = FaultyConfig(kind);
    auto clean = bench::MustRun(ClickCountJob(), cfg, input);
    if (!clean.ok()) return false;

    sim::CrashEvent crash;
    crash.node = 3;
    crash.at_map_fraction = 0.5;
    cfg.faults.crashes = {crash};
    auto faulty = bench::MustRun(ClickCountJob(), cfg, input);
    if (!faulty.ok()) return false;

    const JobMetrics& m = faulty->metrics;
    std::printf("%-9s %9.1f %9.1f %8.1f%% %6llu %6llu %5llu %9s %8.1f %4s\n",
                std::string(EngineKindName(kind)).c_str(),
                clean->running_time, faulty->running_time,
                100.0 * (faulty->running_time / clean->running_time - 1.0),
                static_cast<unsigned long long>(m.map_task_attempts),
                static_cast<unsigned long long>(m.killed_attempts),
                static_cast<unsigned long long>(m.lost_map_outputs),
                bench::Mb(m.recovery_bytes).c_str(), m.wasted_cpu_s,
                bench::YesNo(bench::MatchesReference(*faulty, expected),
                             &all_ok));
    names.push_back(std::string(EngineKindName(kind)) + " red%");
    series.push_back(faulty->reduce_progress);
  }
  std::printf("\nreduce progress under the crash (the plateau is the"
              " re-execution window):\n");
  bench::PrintProgress(names, series, 20);
  return all_ok;
}

bool StragglerScenario(const ChunkStore& input,
                       const std::map<std::string, uint64_t>& expected) {
  std::printf("\n--- B: node 1 with cpu/disk 4x slower, speculation"
              " off vs on ---\n");
  std::printf("%-9s %9s %9s %8s %6s %5s %4s\n", "engine", "no_spec_s",
              "spec_s", "speedup", "spec", "wins", "ref?");
  bool all_ok = true;
  for (EngineKind kind : kEngines) {
    JobConfig cfg = FaultyConfig(kind);
    sim::StragglerSpec slow;
    slow.node = 1;
    slow.cpu_factor = 4.0;
    slow.disk_factor = 4.0;
    cfg.faults.stragglers = {slow};
    auto no_spec = bench::MustRun(ClickCountJob(), cfg, input);
    if (!no_spec.ok()) return false;

    cfg.faults.speculative_execution = true;
    auto spec = bench::MustRun(ClickCountJob(), cfg, input);
    if (!spec.ok()) return false;

    const JobMetrics& m = spec->metrics;
    std::printf("%-9s %9.1f %9.1f %7.2fx %6llu %5llu %4s\n",
                std::string(EngineKindName(kind)).c_str(),
                no_spec->running_time, spec->running_time,
                no_spec->running_time / spec->running_time,
                static_cast<unsigned long long>(m.speculative_attempts),
                static_cast<unsigned long long>(m.speculative_wins),
                bench::YesNo(bench::MatchesReference(*spec, expected),
                             &all_ok));
  }
  return all_ok;
}

}  // namespace
}  // namespace onepass

int main(int argc, char** argv) {
  using namespace onepass;
  const bench::Flags flags = bench::ParseFlags(argc, argv);

  std::printf("=== Fault injection & recovery: user click counting ===\n");
  const ClickStreamConfig clicks = bench::ScaledClicks(flags.scale);
  ChunkStore input(256 << 10, bench::PaperCluster().nodes,
                   /*replication=*/2);
  GenerateClickStream(clicks, &input);
  std::printf("input: %s MB in %zu chunks, replication 2\n",
              bench::Mb(input.total_bytes()).c_str(), input.chunks().size());

  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  const bool crash_ok = CrashScenario(input, expected);
  const bool straggler_ok = StragglerScenario(input, expected);
  return crash_ok && straggler_ok ? 0 : 1;
}
