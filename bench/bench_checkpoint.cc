// Checkpointed reduce-state recovery (DESIGN.md §5.6): what a reduce-phase
// node crash costs with and without checkpoints, per engine (no
// counterpart in the paper, which ran on a healthy cluster; the recovery
// model follows its Hadoop lineage).
//
// A node dies when 50% / 90% of the shuffle bytes have been delivered.
// Without checkpoints its reducers restart from nothing: every segment is
// re-fetched (and already-consumed reduce work is redone). With a
// checkpoint every 4 deliveries, replicated 2x, a restart restores the
// newest surviving image and re-fetches only post-watermark segments —
// the later the crash, the bigger the win. Running times print with 3
// decimals so CI can gate them at reduced scale. Exits 1 when a job
// fails or a row's ref? column reads NO.
//
// Usage: bench_checkpoint [--scale=S] [--codec=none|lz] [--threads=N]

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

JobConfig BaseConfig(EngineKind kind, const bench::Flags& flags) {
  JobConfig cfg = bench::ScaledJobConfig(kind);
  cfg.map_side_combine = true;
  cfg.merge_factor = 32;
  cfg.expected_keys_per_reducer = 1200;
  cfg.expected_bytes_per_reducer = 2 << 20;
  cfg.collect_outputs = true;
  cfg.replication = 2;
  cfg.data_plane_threads = flags.threads;
  cfg.block_codec = bench::CodecFromFlag(flags.codec);
  return cfg;
}

// Each scenario returns false when a job failed or a row read NO.
bool CrashScenario(const ChunkStore& input,
                   const std::map<std::string, uint64_t>& expected,
                   const bench::Flags& flags, double fraction) {
  std::printf("\n--- crash node 3 at %.0f%% of the shuffle:"
              " no checkpoint vs every 4 segments (repl 2) ---\n",
              100.0 * fraction);
  std::printf("%-9s %8s | %8s %9s %6s | %8s %9s %6s %5s %5s | %8s %4s\n",
              "engine", "clean_s", "plain_s", "refetchMB", "remaps",
              "ckpt_s", "refetchMB", "remaps", "saved", "rest", "workdrop",
              "ref?");
  bool all_ok = true;
  for (EngineKind kind : kEngines) {
    JobConfig cfg = BaseConfig(kind, flags);
    auto clean = bench::MustRun(ClickCountJob(), cfg, input);
    if (!clean.ok()) return false;

    sim::CrashEvent crash;
    crash.node = 3;
    crash.at_reduce_fraction = fraction;
    cfg.faults.crashes = {crash};
    auto plain = bench::MustRun(ClickCountJob(), cfg, input);
    if (!plain.ok()) return false;

    cfg.checkpoint_interval_segments = 4;
    cfg.checkpoint_replication = 2;
    auto ckpt = bench::MustRun(ClickCountJob(), cfg, input);
    if (!ckpt.ok()) return false;

    const JobMetrics& mp = plain->metrics;
    const JobMetrics& mc = ckpt->metrics;
    const uint64_t plain_remaps =
        mp.map_task_attempts - static_cast<uint64_t>(plain->map_tasks);
    const uint64_t ckpt_remaps =
        mc.map_task_attempts - static_cast<uint64_t>(ckpt->map_tasks);
    // The headline ratio: bytes the restarted reducers re-fetched without
    // vs with checkpoints (the issue's >= 3x acceptance bound at 90%).
    const double workdrop =
        mc.shuffle_refetched_bytes > 0
            ? static_cast<double>(mp.shuffle_refetched_bytes) /
                  static_cast<double>(mc.shuffle_refetched_bytes)
            : 0.0;
    const bool ok = bench::MatchesReference(*plain, expected) &&
                    bench::MatchesReference(*ckpt, expected) &&
                    bench::MatchesReference(*clean, expected);
    std::printf(
        "%-9s %8.3f | %8.3f %9s %6llu | %8.3f %9s %6llu %5llu %5llu |"
        " %7.1fx %4s\n",
        std::string(EngineKindName(kind)).c_str(), clean->running_time,
        plain->running_time, bench::Mb(mp.shuffle_refetched_bytes).c_str(),
        static_cast<unsigned long long>(plain_remaps), ckpt->running_time,
        bench::Mb(mc.shuffle_refetched_bytes).c_str(),
        static_cast<unsigned long long>(ckpt_remaps),
        static_cast<unsigned long long>(mc.checkpoints_written),
        static_cast<unsigned long long>(mc.checkpoints_restored), workdrop,
        bench::YesNo(ok, &all_ok));
  }
  return all_ok;
}

bool CleanOverheadScenario(const ChunkStore& input,
                           const std::map<std::string, uint64_t>& expected,
                           const bench::Flags& flags) {
  std::printf("\n--- checkpoint overhead on a healthy run"
              " (every 4 segments, repl 2) ---\n");
  std::printf("%-9s %9s %9s %9s %6s %9s %9s %4s\n", "engine", "plain_s",
              "ckpt_s", "overhead", "saved", "ckpt_MB", "repl_MB", "ref?");
  bool all_ok = true;
  for (EngineKind kind : kEngines) {
    JobConfig cfg = BaseConfig(kind, flags);
    auto plain = bench::MustRun(ClickCountJob(), cfg, input);
    if (!plain.ok()) return false;
    cfg.checkpoint_interval_segments = 4;
    cfg.checkpoint_replication = 2;
    auto ckpt = bench::MustRun(ClickCountJob(), cfg, input);
    if (!ckpt.ok()) return false;
    const JobMetrics& m = ckpt->metrics;
    std::printf("%-9s %9.3f %9.3f %8.1f%% %6llu %9s %9s %4s\n",
                std::string(EngineKindName(kind)).c_str(),
                plain->running_time, ckpt->running_time,
                100.0 * (ckpt->running_time / plain->running_time - 1.0),
                static_cast<unsigned long long>(m.checkpoints_written),
                bench::Mb(m.checkpoint_bytes).c_str(),
                bench::Mb(m.checkpoint_replica_bytes).c_str(),
                bench::YesNo(bench::MatchesReference(*ckpt, expected),
                             &all_ok));
  }
  return all_ok;
}

}  // namespace
}  // namespace onepass

int main(int argc, char** argv) {
  using namespace onepass;
  const bench::Flags flags = bench::ParseFlags(argc, argv);

  std::printf(
      "=== Checkpointed reduce-state recovery: user click counting ===\n");
  const ClickStreamConfig clicks = bench::ScaledClicks(flags.scale);
  ChunkStore input(256 << 10, bench::PaperCluster().nodes,
                   /*replication=*/2);
  GenerateClickStream(clicks, &input);
  std::printf("input: %s MB in %zu chunks, replication 2\n",
              bench::Mb(input.total_bytes()).c_str(), input.chunks().size());

  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  const bool healthy_ok = CleanOverheadScenario(input, expected, flags);
  const bool crash50_ok = CrashScenario(input, expected, flags, 0.5);
  const bool crash90_ok = CrashScenario(input, expected, flags, 0.9);
  return healthy_ok && crash50_ok && crash90_ok ? 0 : 1;
}
