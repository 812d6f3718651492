// Tuning Hadoop with the analytical model (§3 of the paper).
//
// Given a workload description (input size, K_m, K_r) and the hardware
// (nodes, buffer sizes), the model predicts the I/O + startup time for any
// (chunk size C, merge factor F) and picks the best setting; we then
// validate the choice by actually running the job at the recommended and
// at a deliberately bad setting.
//
// Build & run:  ./build/examples/model_tuning

#include <cstdio>
#include <vector>

#include "src/model/hadoop_model.h"
#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"

using namespace onepass;

int main() {
  // Workload: a ~40 MB click stream, sessionization (K_m ~ 1.15, K_r ~ 1).
  ClickStreamConfig clicks;
  clicks.num_clicks = 550'000;
  clicks.num_users = 20'000;
  clicks.user_skew = 0.5;
  clicks.clicks_per_second = 15;

  CostModel costs;
  costs.task_start_s = 0.010;
  costs.disk_seek_s = 0.05e-3;

  HadoopWorkload w;
  w.d_bytes = 550'000.0 * 75;  // ~75 bytes per record
  w.k_m = 1.15;
  w.k_r = 1.0;
  HadoopHardware hw;
  hw.n_nodes = 10;
  hw.b_m = 512 << 10;
  hw.b_r = 64 << 10;
  const HadoopModel model(w, hw, costs);

  // Scan the model over a grid of (C, F).
  std::vector<double> chunks;
  for (double c = 32 << 10; c <= 1 << 20; c *= 2) chunks.push_back(c);
  const std::vector<double> factors = {3, 4, 6, 8, 12, 16, 24};
  const OptimalSettings best =
      OptimizeHadoopSettings(model, chunks, factors, /*r=*/4);

  std::printf("model recommends: C = %.0f KB, F = %.0f  (predicted T = "
              "%.2f s)\n",
              best.settings.c / 1024, best.settings.f, best.time);
  std::printf("rule of thumb (§3.2(1)): largest C with C*K_m <= B_m gives "
              "C = %.0f KB\n\n",
              RecommendChunkSize(w, hw, chunks) / 1024);

  // Validate: run the recommended setting and a bad one.
  auto run = [&](double c, double f) {
    JobConfig cfg;
    cfg.engine = EngineKind::kSortMerge;
    cfg.cluster.nodes = 10;
    cfg.reducers_per_node = 4;
    cfg.chunk_bytes = static_cast<uint64_t>(c);
    cfg.map_buffer_bytes = 512 << 10;
    cfg.reduce_memory_bytes = 64 << 10;
    cfg.merge_factor = static_cast<int>(f);
    cfg.costs = costs;
    ChunkStore input(cfg.chunk_bytes, cfg.cluster.nodes);
    GenerateClickStream(clicks, &input);
    auto r = LocalCluster::RunJob(SessionizationJob(), cfg, input);
    if (!r.ok()) {
      std::fprintf(stderr, "job (C=%.0f KB, F=%.0f) failed: %s\n", c / 1024,
                   f, r.status().ToString().c_str());
      return -1.0;
    }
    return r->running_time;
  };

  const double good = run(best.settings.c, best.settings.f);
  const double bad = run(32 << 10, 3);
  if (good < 0 || bad < 0) return 1;
  std::printf("measured: recommended setting %.2f s, bad setting "
              "(C=32KB, F=3) %.2f s  -> %.0f%% slower\n",
              good, bad, 100.0 * (bad - good) / good);
  std::printf("\nthe model's parameter choices transfer to the measured "
              "system — §3.2's conclusion.\n");
  return 0;
}
