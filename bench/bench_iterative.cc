// Iterative-analytics smoke for the resident shuffle engine (DESIGN.md
// §5.9). Three sections:
//
//   (1) Growing-log incremental sessionization — the M3R pitch: a warm
//       resident chain consumes only each round's delta and restores the
//       prior round's reduce state, while a cold job rescans the whole
//       log. Reports per-iteration simulated wall time, speedup, and
//       resident-hit ratio; target >= 5x after the first iteration.
//   (2) Growing-log click counting — same shape, but counting is
//       algebraic, so the chain's final iteration must emit exactly what
//       one cold job over the full log emits ("output match" sentinel).
//   (3) Label propagation repeated over the same input — input caching +
//       pinned placement + state carry on an idempotent aggregate; the
//       warm final output must equal the cold answer.
//
// Each section runs one JobConfig twice: warm as a RunJobChain, whose
// stages are resident, and cold as solo RunJob calls.
//
// Exits non-zero if any job fails or an output-match sentinel reads NO.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/mr/job_chain.h"
#include "src/workloads/iterative.h"
#include "src/workloads/jobs.h"

namespace {

using onepass::Record;

std::vector<std::pair<std::string, std::string>> Sorted(
    const std::vector<Record>& outs) {
  std::vector<std::pair<std::string, std::string>> v;
  v.reserve(outs.size());
  for (const Record& r : outs) v.emplace_back(r.key, r.value);
  std::sort(v.begin(), v.end());
  return v;
}

double HitRatio(const onepass::JobResult& r) {
  const double hit = static_cast<double>(r.metrics.resident_hit_bytes);
  const double disk = static_cast<double>(r.shuffle_from_disk_bytes);
  return hit + disk > 0 ? hit / (hit + disk) : 0.0;
}

onepass::Result<onepass::ChainResult> MustChain(
    const std::vector<onepass::ChainStage>& stages) {
  auto r = onepass::RunJobChain(stages);
  if (!r.ok()) {
    std::fprintf(stderr, "chain failed: %s\n",
                 r.status().ToString().c_str());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace onepass;
  const bench::Flags flags = bench::ParseFlags(argc, argv);
  const int iters = flags.iterations;
  const double growth = 0.08;  // each round adds 8% of the total log
  bool ok = true;
  double min_growing_speedup = -1;

  std::printf("=== iterative analytics: resident shuffle vs cold jobs "
              "(%d iterations) ===\n\n", iters);

  // ---- (1) growing-log incremental sessionization ----
  {
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kIncHash, flags);
    cfg.map_side_combine = false;  // sessionization: states are buffers

    // A fixed user population over a log that keeps growing: finalize
    // cost stays flat while the cold job's rescan grows with the log —
    // the regime where incremental refresh pays off.
    ClickStreamConfig clicks = bench::ScaledClicks(2.0 * flags.scale);
    clicks.num_users = 16'000;
    const GrowingLog log = MakeGrowingClickLog(
        clicks, iters, growth, cfg.chunk_bytes, cfg.cluster.nodes);

    std::vector<ChainStage> stages(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      stages[static_cast<size_t>(i)] = {SessionizationJob(), cfg,
                                        log.deltas[static_cast<size_t>(i)].get()};
    }
    auto warm = MustChain(stages);
    if (!warm.ok()) return 1;

    std::printf("growing-log sessionization (delta = %.0f%% of %s MB "
                "log)\n", growth * 100,
                bench::Mb(log.fulls.back()->total_bytes()).c_str());
    std::printf("%-6s %12s %12s %10s %10s\n", "iter", "cold (s)",
                "warm (s)", "speedup", "hit ratio");
    for (int i = 0; i < iters; ++i) {
      auto cold = bench::MustRun(SessionizationJob(), cfg,
                                 *log.fulls[static_cast<size_t>(i)]);
      if (!cold.ok()) return 1;
      const JobResult& w = warm->iterations[static_cast<size_t>(i)];
      const double speedup =
          w.running_time > 0 ? cold->running_time / w.running_time : 0.0;
      std::printf("%-6d %12s %12s %9.1fx %9.0f%%\n", i,
                  bench::Secs(cold->running_time).c_str(),
                  bench::Secs(w.running_time).c_str(), speedup,
                  HitRatio(w) * 100);
      if (i >= 1) {
        min_growing_speedup = min_growing_speedup < 0
                                  ? speedup
                                  : std::min(min_growing_speedup, speedup);
      }
    }
  }

  // ---- (2) growing-log click counting: exactness of the refreshed
  // answer ----
  {
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kIncHash, flags);
    cfg.map_side_combine = true;
    cfg.collect_outputs = true;

    const ClickStreamConfig clicks = bench::ScaledClicks(0.1 * flags.scale);
    const GrowingLog log = MakeGrowingClickLog(
        clicks, iters, growth, cfg.chunk_bytes, cfg.cluster.nodes);

    std::vector<ChainStage> stages(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      stages[static_cast<size_t>(i)] = {ClickCountJob(), cfg,
                                        log.deltas[static_cast<size_t>(i)].get()};
    }
    auto warm = MustChain(stages);
    if (!warm.ok()) return 1;
    auto cold = bench::MustRun(ClickCountJob(), cfg, *log.fulls.back());
    if (!cold.ok()) return 1;

    const bool match =
        Sorted(warm->iterations.back().outputs) == Sorted(cold->outputs);
    std::printf("\n%-52s %s\n",
                "counting chain final output == cold job over full log:",
                bench::YesNo(match, &ok));
  }

  // ---- (3) label propagation repeated over the same input ----
  {
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kIncHash, flags);
    cfg.map_side_combine = true;
    cfg.collect_outputs = true;

    const ClickStreamConfig clicks = bench::ScaledClicks(0.1 * flags.scale);
    ChunkStore input(cfg.chunk_bytes, cfg.cluster.nodes);
    GenerateClickStream(clicks, &input);

    std::vector<ChainStage> stages(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      stages[static_cast<size_t>(i)] = {LabelPropagationJob(), cfg, &input};
    }
    auto warm = MustChain(stages);
    if (!warm.ok()) return 1;
    auto cold = bench::MustRun(LabelPropagationJob(), cfg, input);
    if (!cold.ok()) return 1;

    std::printf("\nlabel propagation, same input every round (cold: %.3f "
                "s)\n", cold->running_time);
    std::printf("%-6s %12s %10s %10s\n", "iter", "warm (s)", "speedup",
                "hit ratio");
    for (int i = 0; i < iters; ++i) {
      const JobResult& w = warm->iterations[static_cast<size_t>(i)];
      std::printf("%-6d %12.3f %9.1fx %9.0f%%\n", i, w.running_time,
                  w.running_time > 0 ? cold->running_time / w.running_time
                                     : 0.0,
                  HitRatio(w) * 100);
    }
    const bool match =
        Sorted(warm->iterations.back().outputs) == Sorted(cold->outputs);
    std::printf("%-52s %s\n",
                "label-propagation warm final output == cold output:",
                bench::YesNo(match, &ok));
  }

  std::printf("\nmin warm-iteration speedup (growing log, iter >= 1): "
              "%.1fx (target >= 5x)\n",
              min_growing_speedup);
  std::printf("iterative smoke: %s\n",
              ok ? "outputs exact" : "OUTPUT MISMATCH");
  return ok ? 0 : 1;
}
