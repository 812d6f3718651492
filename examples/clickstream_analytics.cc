// Click-stream analytics: the paper's motivating scenario end to end.
//
// Generates a synthetic click log, then runs sessionization under all
// four group-by engines and compares running time, internal spill, and
// how closely the reduce progress tracked the map progress — a compact
// rendition of the paper's §6 story.
//
// Build & run:  ./build/examples/clickstream_analytics

#include <cstdio>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"

using namespace onepass;

namespace {

// Reduce progress at the moment the maps finished: 100 means fully
// incremental (reduce kept up); ~33 means the engine blocked.
double ProgressAtMapFinish(const JobResult& r) {
  return r.reduce_progress.ValueAt(r.map_finish_time);
}

}  // namespace

int main() {
  std::printf("generating a ~10 MB click stream (Zipf users, bursty "
              "sessions)...\n");
  ClickStreamConfig clicks;
  clicks.num_clicks = 150'000;
  clicks.num_users = 6'000;
  clicks.user_skew = 0.5;
  clicks.clicks_per_second = 12;  // ~3.5 simulated hours
  ChunkStore input(/*chunk_bytes=*/256 << 10, /*nodes=*/10);
  GenerateClickStream(clicks, &input);

  std::printf("%-12s %10s %12s %14s %22s\n", "engine", "time(s)",
              "spill(MB)", "early out(%)", "reduce%@maps-done");

  bool all_ok = true;
  for (EngineKind kind :
       {EngineKind::kSortMerge, EngineKind::kMRHash, EngineKind::kIncHash,
        EngineKind::kDincHash}) {
    JobConfig cfg;
    cfg.engine = kind;
    cfg.cluster.nodes = 10;
    cfg.reducers_per_node = 4;
    cfg.chunk_bytes = 256 << 10;
    cfg.map_buffer_bytes = 512 << 10;
    cfg.reduce_memory_bytes = 96 << 10;  // tight: forces spills
    cfg.merge_factor = 16;
    cfg.expected_keys_per_reducer = 150;
    cfg.expected_bytes_per_reducer = 1 << 20;
    cfg.costs.task_start_s = 0.01;
    cfg.costs.disk_seek_s = 0.4e-3;
    cfg.costs.map_output_retention_s = 0.1;

    auto r = LocalCluster::RunJob(SessionizationJob(512), cfg, input);
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   std::string(EngineKindName(kind)).c_str(),
                   r.status().ToString().c_str());
      all_ok = false;
      continue;
    }
    const double early =
        r->metrics.output_records > 0
            ? 100.0 * static_cast<double>(r->metrics.early_output_records) /
                  static_cast<double>(r->metrics.output_records)
            : 0.0;
    std::printf("%-12s %10.2f %12.1f %14.1f %22.1f\n",
                std::string(EngineKindName(kind)).c_str(), r->running_time,
                r->metrics.reduce_spill_write_bytes / (1024.0 * 1024.0),
                early, ProgressAtMapFinish(*r));
  }

  std::printf(
      "\nreading the table: the sort-merge baseline blocks (reduce stuck "
      "near 33%% while maps\nrun, zero early output); INC-hash streams "
      "results for memory-resident users; DINC-hash\nadditionally evicts "
      "expired sessions instead of spilling them, so nearly all output\n"
      "is produced while the data is still arriving.\n");
  return all_ok ? 0 : 1;
}
