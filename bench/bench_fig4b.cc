// Reproduces Fig. 4(b): running time vs chunk size C for merge factors
// F in {4, 8, 16} — model (dashed in the paper) vs measured (solid) —
// together with §3.2's tuning conclusions:
//   (1) the best C is the largest whose map output fits the sort buffer
//       (startup cost shrinks with C; the external sort kicks in past the
//       buffer and time jumps);
//   (2) larger F merges fewer bytes, until the merge is one-pass.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/model/hadoop_model.h"
#include "src/workloads/jobs.h"

int main(int argc, char** argv) {
  using namespace onepass;
  const bench::Flags flags = bench::ParseFlags(argc, argv);

  std::printf(
      "=== Fig. 4(b): time vs chunk size for F in {4, 8, 16} ===\n\n");

  ClickStreamConfig clicks = bench::ScaledClicks(flags.scale);
  const std::vector<uint64_t> chunk_sizes = {32 << 10,  64 << 10,
                                             128 << 10, 256 << 10,
                                             384 << 10, 512 << 10,
                                             768 << 10, 1 << 20};
  const std::vector<int> merge_factors = {4, 8, 16};

  std::printf("%10s", "C(KB)");
  for (int f : merge_factors) std::printf("   model F=%-4d", f);
  for (int f : merge_factors) std::printf("   meas. F=%-4d", f);
  std::printf("\n");

  JobConfig base = bench::ScaledJobConfig(EngineKind::kSortMerge);
  if (base.combine_scope == CombineScope::kNode) {
    // The node tier needs a combine function on sort-merge; timings then
    // measure sessionization with map-side combine enabled.
    base.map_side_combine = true;
    std::printf("(--combine_scope=node: map-side combine enabled)\n\n");
  }
  base.reduce_memory_bytes = 64 << 10;
  base.costs = CostModel();
  base.costs.task_start_s = 0.010;
  base.costs.disk_seek_s = 0.05e-3;
  base.block_codec = bench::CodecFromFlag(flags.codec);

  // Bytes-on-disk rows (intermediate I/O actually charged to disk —
  // encoded bytes when a codec is active), printed after the time table.
  std::vector<std::string> disk_rows;

  double buffer_c = 0;
  int failures = 0;
  for (uint64_t c : chunk_sizes) {
    ChunkStore input(c, base.cluster.nodes);
    GenerateClickStream(clicks, &input);

    HadoopWorkload w;
    w.d_bytes = static_cast<double>(input.total_bytes());
    w.k_m = 1.15;
    w.k_r = 1.0;
    HadoopHardware hw;
    hw.n_nodes = base.cluster.nodes;
    hw.b_m = static_cast<double>(base.map_buffer_bytes);
    hw.b_r = static_cast<double>(base.reduce_memory_bytes);
    const HadoopModel model(w, hw, base.costs);
    buffer_c = hw.b_m / w.k_m;

    std::printf("%10llu", static_cast<unsigned long long>(c >> 10));
    std::vector<double> measured;
    for (int f : merge_factors) {
      const HadoopSettings settings{base.reducers_per_node,
                                    static_cast<double>(c),
                                    static_cast<double>(f)};
      std::printf(" %14.2f", model.TimeMeasurement(settings));
    }
    char row[160];
    int row_len = std::snprintf(row, sizeof(row), "%10llu",
                                static_cast<unsigned long long>(c >> 10));
    for (int f : merge_factors) {
      JobConfig cfg = base;
      cfg.chunk_bytes = c;
      cfg.merge_factor = f;
      auto r = bench::MustRun(SessionizationJob(), cfg, input);
      if (!r.ok()) ++failures;
      std::printf(" %14.2f", r.ok() ? r->running_time : 0.0);
      const uint64_t disk_bytes =
          !r.ok() ? 0
                  : r->metrics.map_spill_write_bytes +
                        r->metrics.map_spill_read_bytes +
                        r->metrics.map_output_bytes +
                        r->metrics.reduce_spill_write_bytes +
                        r->metrics.reduce_spill_read_bytes;
      row_len += std::snprintf(row + row_len, sizeof(row) - row_len,
                               " %14s", bench::Mb(disk_bytes).c_str());
    }
    disk_rows.push_back(row);
    std::printf("\n");
  }

  std::printf("\nbytes on disk, intermediate streams (MB%s):\n",
              base.block_codec == BlockCodecKind::kNone ? ""
                                                        : ", lz-encoded");
  std::printf("%10s", "C(KB)");
  for (int f : merge_factors) std::printf("    disk F=%-4d", f);
  std::printf("\n");
  for (const std::string& row : disk_rows) std::printf("%s\n", row.c_str());

  std::printf(
      "\n§3.2(1): map output fits the %llu KB sort buffer up to C ~ %.0f "
      "KB; both model and\nmeasured curves jump past that point, so the "
      "recommended C is the largest below it.\n",
      static_cast<unsigned long long>(base.map_buffer_bytes >> 10),
      buffer_c / 1024);
  std::printf(
      "§3.2(2): time decreases from F=4 to F=16 (fewer merge passes); "
      "once one-pass,\nlarger F gains nothing.\n");

  return failures == 0 ? 0 : 1;
}
