// Reproduces §3.2(3): the effect of the number of reducers per node.
//
// Paper: with 4 reduce slots per node, R=4 took 4187 s but R=8 took
// 4723 s — the second wave of reducers starts only after the first wave
// finishes (i.e. after the maps are done), so it fetches map output from
// disk instead of memory. Raising R beyond the slot count is therefore
// counterproductive; tuning F is the right lever.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

struct Row {
  double time = 0;
  uint64_t disk_fetch = 0;
  uint64_t disk_bytes = 0;  // all intermediate bytes written/read on disk
};

Row Run(int r_per_node, BlockCodecKind codec, const ChunkStore& input) {
  JobConfig cfg = bench::ScaledJobConfig(EngineKind::kSortMerge);
  // The node tier needs a combine function on sort-merge; under
  // --combine_scope=node the rows measure sessionization with map-side
  // combine enabled.
  if (cfg.combine_scope == CombineScope::kNode) cfg.map_side_combine = true;
  cfg.merge_factor = 32;  // optimized merge, like the paper's experiment
  cfg.reduce_memory_bytes = 128 << 10;
  cfg.reducers_per_node = r_per_node;
  cfg.block_codec = codec;
  auto res = bench::MustRun(SessionizationJob(), cfg, input);
  Row row;
  if (!res.ok()) return row;
  row.time = res->running_time;
  row.disk_fetch = res->shuffle_from_disk_bytes;
  const JobMetrics& m = res->metrics;
  row.disk_bytes = m.map_spill_write_bytes + m.map_spill_read_bytes +
                   m.map_output_bytes + m.reduce_spill_write_bytes +
                   m.reduce_spill_read_bytes;
  return row;
}

}  // namespace
}  // namespace onepass

int main(int argc, char** argv) {
  using namespace onepass;
  const bench::Flags flags = bench::ParseFlags(argc, argv);

  std::printf("=== §3.2(3): reducers per node (4 reduce slots per node) "
              "===\n\n");

  const ClickStreamConfig clicks = bench::ScaledClicks(flags.scale);
  JobConfig base = bench::ScaledJobConfig(EngineKind::kSortMerge);
  ChunkStore input(base.chunk_bytes, base.cluster.nodes);
  GenerateClickStream(clicks, &input);

  const BlockCodecKind codec = bench::CodecFromFlag(flags.codec);
  const Row r4 = Run(4, codec, input);
  const Row r8 = Run(8, codec, input);

  std::printf("%-24s %14s %14s\n", "", "R=4", "R=8");
  std::printf("%-24s %14.2f %14.2f\n", "Running time (s)", r4.time, r8.time);
  std::printf("%-24s %14s %14s\n", "Shuffle from disk (MB)",
              bench::Mb(r4.disk_fetch).c_str(),
              bench::Mb(r8.disk_fetch).c_str());
  std::printf("%-24s %14s %14s\n",
              codec == BlockCodecKind::kNone ? "Bytes on disk (MB)"
                                             : "Bytes on disk (MB, lz)",
              bench::Mb(r4.disk_bytes).c_str(),
              bench::Mb(r8.disk_bytes).c_str());

  std::printf(
      "\npaper shape check: R=8 is slower (paper: 4187 s vs 4723 s) — the "
      "second reducer\nwave starts after the mappers finished and must "
      "fetch their output from disk.\n");

  return 0;
}
