// Microbenchmark: FREQUENT (the basis of DINC-hash) vs a plain hash
// table, on Zipf streams. The paper picks FREQUENT because it
// explicitly maintains the hot-key set; this bench shows its per-tuple
// cost is competitive, i.e. monitoring is not the bottleneck.
// BM_FrequentDincMiss drives the sketch the way DINC-hash does on its
// large trigram key space, where most tuples miss the monitor.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/engine/hash_bucket_pass.h"
#include "src/sketch/frequent.h"
#include "src/util/coding.h"
#include "src/util/flat_table.h"
#include "src/util/random.h"
#include "src/workloads/jobs.h"

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

// The monitor capacity s DINC-hash derives for perfbench's trigrams_dinc
// job: the scaled paper cluster's reduce memory, 60,000 expected keys per
// reducer and the counting reducer's state size.
size_t TrigramsDincCapacity() {
  JobConfig cfg = bench::ScaledJobConfig(EngineKind::kDincHash);
  cfg.expected_keys_per_reducer = 60'000;
  const uint64_t state_bytes = TrigramCountJob(50).inc()->StateBytesHint();
  return PlanHashMemory(cfg, state_bytes).slots();
}

// One reducer's share of trigrams_dinc's input, in the order the lines
// are generated: the trigrams of ScaledDocs(0.25)'s lines (built as
// GenerateDocuments builds them: "w" + 6 digits per word, so 23-byte
// keys), keeping those that hash to reducer 0 of the paper cluster's.
// About 25 K tuples over a key space several times s, before map-side
// combine.
std::vector<std::string> OneReducerTrigrams() {
  const DocumentCorpusConfig docs = bench::ScaledDocs(0.25);
  const JobConfig cfg = bench::ScaledJobConfig(EngineKind::kDincHash);
  const uint64_t reducers =
      static_cast<uint64_t>(cfg.cluster.nodes * cfg.reducers_per_node);
  Xoshiro256StarStar rng(docs.seed);
  ZipfGenerator words(docs.vocabulary, docs.word_skew);
  std::vector<std::string> line(docs.words_per_record);
  std::vector<std::string> keys;
  for (uint64_t r = 0; r < docs.num_records; ++r) {
    for (std::string& word : line) {
      word.assign("w");
      PutDecimal(&word, words.Next(&rng), 6);
    }
    for (size_t w = 0; w + 2 < line.size(); ++w) {
      std::string key = line[w] + ' ' + line[w + 1] + ' ' + line[w + 2];
      if (FlatTable::DefaultHash(key) % reducers == 0) {
        keys.push_back(std::move(key));
      }
    }
  }
  return keys;
}

// DincHashEngine::Consume's exact sketch calls per tuple: Find, then Hit
// on a monitored key; on a miss with no free slot, the expiry sweep's
// ColdestSlots(4) and Count (the counting reducer discards nothing), then
// InsertIntoFree, ReplaceSlot of a zero-count MinSlot, or DecrementAll.
void BM_FrequentDincMiss(benchmark::State& state) {
  constexpr int kExpirySweep = 4;  // as in dinc_hash_engine.cc
  const size_t capacity = TrigramsDincCapacity();
  const auto keys = OneReducerTrigrams();
  std::vector<uint64_t> hashes;
  hashes.reserve(keys.size());
  for (const auto& k : keys) hashes.push_back(FlatTable::DefaultHash(k));
  uint64_t misses = 0, evictions = 0;
  for (auto _ : state) {
    FrequentSketch sketch(capacity);
    for (size_t i = 0; i < keys.size(); ++i) {
      const int found = sketch.Find(keys[i], hashes[i]);
      if (found >= 0) {
        sketch.Hit(found);
        continue;
      }
      ++misses;
      if (!sketch.HasFreeSlot()) {
        int cold[kExpirySweep];
        const int n = sketch.ColdestSlots(kExpirySweep, cold);
        uint64_t counts = 0;
        for (int c = 0; c < n; ++c) counts += sketch.Count(cold[c]);
        benchmark::DoNotOptimize(counts);
      }
      if (sketch.HasFreeSlot()) {
        sketch.InsertIntoFree(keys[i], hashes[i]);
      } else if (sketch.MinCount() == 0) {
        sketch.ReplaceSlot(sketch.MinSlot(), keys[i], hashes[i]);
        ++evictions;
      } else {
        sketch.DecrementAll();
      }
    }
    benchmark::DoNotOptimize(sketch.size());
  }
  const double offers = static_cast<double>(state.iterations() * keys.size());
  state.SetItemsProcessed(state.iterations() * keys.size());
  // A label, not counters: the CSV reporter aborts when a later row has
  // counters the first row's header lacks.
  char label[96];
  std::snprintf(label, sizeof(label),
                "slots=%zu miss_frac=%.3f evict_frac=%.3f", capacity,
                static_cast<double>(misses) / offers,
                static_cast<double>(evictions) / offers);
  state.SetLabel(label);
}
BENCHMARK(BM_FrequentDincMiss);

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
