// Microbenchmark: FREQUENT (the basis of DINC-hash) vs a plain hash
// table, on Zipf streams. The paper picks FREQUENT because it
// explicitly maintains the hot-key set; this bench shows its per-tuple
// cost is competitive, i.e. monitoring is not the bottleneck.

#include <benchmark/benchmark.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "src/sketch/frequent.h"
#include "src/util/random.h"

namespace onepass {
namespace {

std::vector<std::string> MakeStream(int n, double skew) {
  Xoshiro256StarStar rng(3);
  ZipfGenerator zipf(100'000, skew);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) {
    keys.push_back("k" + std::to_string(zipf.Next(&rng)));
  }
  return keys;
}

void BM_Frequent(benchmark::State& state) {
  const auto keys = MakeStream(1 << 17, state.range(0) / 10.0);
  for (auto _ : state) {
    FrequentSketch sketch(4096);
    for (const auto& k : keys) sketch.Offer(k);
    benchmark::DoNotOptimize(sketch.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_Frequent)->Arg(5)->Arg(10)->Arg(12);  // skew 0.5 / 1.0 / 1.2

void BM_ExactHashTable(benchmark::State& state) {
  const auto keys = MakeStream(1 << 17, state.range(0) / 10.0);
  for (auto _ : state) {
    std::unordered_map<std::string, uint64_t> table;
    for (const auto& k : keys) ++table[k];
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_ExactHashTable)->Arg(5)->Arg(10)->Arg(12);

}  // namespace
}  // namespace onepass
