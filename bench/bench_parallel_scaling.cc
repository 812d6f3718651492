// Parallel data plane: wall-clock scaling of the map and reduce phases
// across host threads (DESIGN.md §5.3).
//
// The simulated *cluster* has always modeled N nodes x C cores; this bench
// measures how fast the *host* executes the data plane that feeds the
// simulation. It runs one map-heavy job (trigram counting: the map-side
// sort dominates), one reduce-heavy job (user click counting into the
// hash engines) and one answer-heavy job (sessionization: one output
// record per click) at data_plane_threads = 1, 2, 4, ... up to the
// hardware, reporting each phase's wall-clock seconds and speedup over
// threads=1, plus serial_s, the job's wall time outside both phases —
// and verifies the determinism contract on every row: outputs, metrics,
// and the simulated running time must be byte-identical to the sequential
// run ("same?" prints NO otherwise). Exits 1 when a job fails or a row
// reads NO.
//
// Usage: bench_parallel_scaling [--scale=S] [--threads=T]
//   --threads=T caps the sweep (default: one per hardware thread).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/thread_pool.h"
#include "src/workloads/documents.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

struct Baseline {
  std::string metrics;
  std::vector<Record> outputs;
  double running_time = 0;
};

// Returns false when a job failed or a row read NO.
bool Sweep(const char* name, const JobSpec& spec, const JobConfig& base,
           const ChunkStore& input, int max_threads) {
  std::printf("\n--- %s ---\n", name);
  std::printf("%-8s %10s %8s %10s %8s %10s %5s\n", "threads", "map_s",
              "map_spd", "reduce_s", "red_spd", "serial_s", "same?");

  Baseline ref;
  double map_base = 0, reduce_base = 0;
  bool all_ok = true;
  for (int threads = 1; threads <= max_threads;
       threads = threads < 2 ? 2 : threads * 2) {
    JobConfig cfg = base;
    cfg.data_plane_threads = threads;
    const auto start = std::chrono::steady_clock::now();
    auto r = bench::MustRun(spec, cfg, input);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    if (!r.ok()) return false;
    bool same = true;
    if (threads == 1) {
      ref.metrics = r->metrics.Serialize();
      ref.outputs = r->outputs;
      ref.running_time = r->running_time;
      map_base = r->map_plane_wall_s;
      reduce_base = r->reduce_plane_wall_s;
    } else {
      same = r->metrics.Serialize() == ref.metrics &&
             r->outputs == ref.outputs &&
             r->running_time == ref.running_time;
    }
    std::printf("%-8d %10.3f %7.2fx %10.3f %7.2fx %10.3f %5s\n", threads,
                r->map_plane_wall_s,
                r->map_plane_wall_s > 0 ? map_base / r->map_plane_wall_s : 0,
                r->reduce_plane_wall_s,
                r->reduce_plane_wall_s > 0
                    ? reduce_base / r->reduce_plane_wall_s
                    : 0,
                wall_s - r->map_plane_wall_s - r->reduce_plane_wall_s,
                bench::YesNo(same, &all_ok));
  }
  return all_ok;
}

int Run(int argc, char** argv) {
  const bench::Flags flags = bench::ParseFlags(argc, argv);
  const int hw = ThreadPool::ResolveThreads(0);
  const int max_threads =
      flags.threads > 0 ? flags.threads : std::max(hw, 1);
  std::printf("parallel data-plane scaling (host: %d hardware threads, "
              "sweeping 1..%d)\n",
              hw, max_threads);
  bool all_ok = true;

  // Map-heavy: trigram counting on the sort-merge engine — the map-side
  // sort is the dominant cost, so the map phase shows the scaling.
  {
    ChunkStore input(256 << 10, 10);
    GenerateDocuments(bench::ScaledDocs(0.5 * flags.scale), &input);
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kSortMerge);
    cfg.collect_outputs = true;
    all_ok &= Sweep("map-heavy: trigram count, sort-merge",
                    TrigramCountJob(), cfg, input, max_threads);
  }

  ChunkStore clicks(256 << 10, 10);
  GenerateClickStream(bench::ScaledClicks(flags.scale), &clicks);

  // Reduce-heavy: click counting with tight reduce memory on INC-hash —
  // reduce-side spills and rehashing dominate.
  {
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kIncHash);
    cfg.map_side_combine = true;
    cfg.reduce_memory_bytes = 256 << 10;
    cfg.expected_keys_per_reducer = 1200;
    cfg.collect_outputs = true;
    all_ok &= Sweep("reduce-heavy: click count, INC-hash", ClickCountJob(),
                    cfg, clicks, max_threads);
  }

  // Answer-heavy: uncombined sessionization on INC-hash (Table 3's job) —
  // one output record per click, so the answer is as large as the input
  // and collecting it is a visible share of the job.
  {
    JobConfig cfg = bench::ScaledJobConfig(EngineKind::kIncHash);
    cfg.merge_factor = 32;
    cfg.expected_keys_per_reducer = 1200;
    cfg.expected_bytes_per_reducer = 5 << 20;
    cfg.collect_outputs = true;
    all_ok &= Sweep("answer-heavy: sessionization, INC-hash",
                    SessionizationJob(), cfg, clicks, max_threads);
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace onepass

int main(int argc, char** argv) { return onepass::Run(argc, argv); }
