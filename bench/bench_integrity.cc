// End-to-end data integrity: cost of detecting and recovering from silent
// corruption, per engine (no counterpart figure in the paper, which assumed
// faithful storage; the checksum design follows HDFS/GFS practice).
//
// Sweeps the corruption rate over every framed stream kind — DFS chunk
// replicas, map spill runs, map output pushes, shuffle fetches, and hash
// bucket spill files — with replication 3 and torn writes armed. Every run
// must produce the reference answer: a detected corruption is recovered
// from a surviving replica, a rebuilt spill, or a re-executed map; an
// unrecoverable one fails the job loudly (never silent wrong output).
//
// Exits 1 when a job fails or a row's ref? column reads NO.
//
// Usage: bench_integrity [--scale=S]

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

constexpr double kRates[] = {0.0, 0.01, 0.05};

JobConfig IntegrityConfigFor(EngineKind kind) {
  JobConfig cfg = bench::ScaledJobConfig(kind);
  cfg.map_side_combine = true;
  cfg.merge_factor = 32;
  cfg.expected_keys_per_reducer = 1200;
  cfg.expected_bytes_per_reducer = 2 << 20;
  cfg.collect_outputs = true;
  cfg.replication = 3;
  return cfg;
}

// Returns false when a job failed or a row read NO.
bool RateSweep(const ChunkStore& input,
               const std::map<std::string, uint64_t>& expected) {
  std::printf("\n--- corruption-rate sweep (replication=3, torn writes) ---\n");
  std::printf("%-9s %6s %9s %8s %6s %6s %5s %5s %9s %9s %4s\n", "engine",
              "rate", "time_s", "overhead", "detect", "recov", "torn",
              "quar", "recov_MB", "verif_MB", "ref?");
  bool all_ok = true;
  for (EngineKind kind : kEngines) {
    double clean_time = -1;
    for (double rate : kRates) {
      JobConfig cfg = IntegrityConfigFor(kind);
      cfg.faults.corruption_rate = rate;
      cfg.faults.torn_writes = rate > 0;
      auto r = bench::MustRun(ClickCountJob(), cfg, input);
      if (!r.ok()) return false;
      if (rate == 0.0) clean_time = r->running_time;
      const JobMetrics& m = r->metrics;
      std::printf(
          "%-9s %6.2f %9.1f %7.1f%% %6llu %6llu %5llu %5llu %9s %9s %4s\n",
          std::string(EngineKindName(kind)).c_str(), rate, r->running_time,
          clean_time > 0
              ? 100.0 * (r->running_time / clean_time - 1.0)
              : 0.0,
          static_cast<unsigned long long>(m.corruptions_detected),
          static_cast<unsigned long long>(m.corruptions_recovered),
          static_cast<unsigned long long>(m.torn_writes_detected),
          static_cast<unsigned long long>(m.quarantined_replicas),
          bench::Mb(m.corruption_recovery_bytes).c_str(),
          bench::Mb(m.verify_bytes).c_str(),
          bench::YesNo(bench::MatchesReference(*r, expected), &all_ok));
    }
  }
  return all_ok;
}

}  // namespace
}  // namespace onepass

int main(int argc, char** argv) {
  using namespace onepass;
  const bench::Flags flags = bench::ParseFlags(argc, argv);

  std::printf("=== Data integrity: user click counting under silent"
              " corruption ===\n");
  const ClickStreamConfig clicks = bench::ScaledClicks(flags.scale);
  ChunkStore input(256 << 10, bench::PaperCluster().nodes,
                   /*replication=*/3);
  GenerateClickStream(clicks, &input);
  std::printf("input: %s MB in %zu chunks, replication 3\n",
              bench::Mb(input.total_bytes()).c_str(), input.chunks().size());

  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  return RateSweep(input, expected) ? 0 : 1;
}
