// Microbenchmark: the map-side CPU cost the paper attacks (§2.3), on the
// real map task. Each row runs MapRunner::Run over every chunk of an input
// store, one chunk after another on one thread, in one MapOutputMode
// (src/mr/map_runner.h): sorting the map buffer by (partition, key), raw or
// combined as records arrive, against the hash paths' partition grouping,
// per-record init() and combine table. The time is the host data plane's;
// the simulated cost model is calibrated separately.
//
// Two key shapes, on the scaled paper cluster's job config without a
// codec (bench::ScaledJobConfig):
//   clicks    ClickCountJob over ScaledClicks(1.0): keys repeat within a
//             map buffer (1.3 M emits, 174,587 buffered keys);
//   trigrams  TrigramCountJob(50) over ScaledDocs(0.25): near-distinct
//             keys (990,000 emits, 981,352 buffered keys).
// Each row's label carries the map output record count, the same in every
// run of one row.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "src/dfs/chunk_store.h"
#include "src/mr/map_runner.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/documents.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

enum class KeyShape { kClicks, kTrigrams };

struct Input {
  JobSpec spec;
  ChunkStore store;
};

// The store of `shape`, generated once per process (untimed) and cut into
// `cfg`'s chunks.
const Input& InputOf(KeyShape shape, const JobConfig& cfg) {
  static const Input* const clicks = [&] {
    auto* in = new Input{ClickCountJob(),
                         ChunkStore(cfg.chunk_bytes, cfg.cluster.nodes)};
    GenerateClickStream(bench::ScaledClicks(1.0), &in->store);
    return in;
  }();
  static const Input* const trigrams = [&] {
    auto* in = new Input{TrigramCountJob(50),
                         ChunkStore(cfg.chunk_bytes, cfg.cluster.nodes)};
    GenerateDocuments(bench::ScaledDocs(0.25), &in->store);
    return in;
  }();
  return shape == KeyShape::kClicks ? *clicks : *trigrams;
}

void BM_MapTask(benchmark::State& state, KeyShape shape, MapOutputMode mode) {
  // MapRunner takes its mode as given and reads neither the engine nor
  // the combiner flag, so one config serves every row.
  const JobConfig cfg = bench::ScaledJobConfig(EngineKind::kSortMerge);
  const Input& in = InputOf(shape, cfg);
  const int reducers = cfg.cluster.nodes * cfg.reducers_per_node;
  const UniversalHashFamily hashes(cfg.seed);
  uint64_t out_records = 0;
  for (auto _ : state) {
    out_records = 0;
    for (const Chunk& chunk : in.store.chunks()) {
      std::unique_ptr<Mapper> mapper = in.spec.mapper();
      std::unique_ptr<IncrementalReducer> inc = in.spec.inc();
      const MapRunner runner(cfg, mode, hashes.At(0), reducers, mapper.get(),
                             inc.get());
      Result<MapTaskOutput> out = runner.Run(chunk.records);
      if (!out.ok()) {
        state.SkipWithError(out.status().ToString().c_str());
        return;
      }
      out_records += out->metrics.map_output_records;
      benchmark::DoNotOptimize(out->pushes.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.store.total_records()));
  state.SetLabel("chunks=" + std::to_string(in.store.chunks().size()) +
                 " out_records=" + std::to_string(out_records));
}

const bool kRegistered = [] {
  const struct {
    const char* name;
    KeyShape shape;
  } kShapes[] = {{"clicks", KeyShape::kClicks},
                 {"trigrams", KeyShape::kTrigrams}};
  const struct {
    const char* name;
    MapOutputMode mode;
  } kModes[] = {{"kSortRaw", MapOutputMode::kSortRaw},
                {"kSortCombine", MapOutputMode::kSortCombine},
                {"kHashRaw", MapOutputMode::kHashRaw},
                {"kHashInit", MapOutputMode::kHashInit},
                {"kHashCombine", MapOutputMode::kHashCombine}};
  for (const auto& s : kShapes) {
    for (const auto& m : kModes) {
      const std::string name =
          std::string("BM_MapTask/") + s.name + "/" + m.name;
      benchmark::RegisterBenchmark(name.c_str(), BM_MapTask, s.shape, m.mode)
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  return true;
}();

}  // namespace
}  // namespace onepass
