// Hash-core microbenchmark (DESIGN.md §5.4): FlatTable vs the legacy
// std::unordered_map<std::string, std::string> on the INC-hash update
// pattern — per tuple, probe the table with the key and either combine an
// 8-byte counter state in place or insert the key with a fresh state.
//
// The legacy loop is the engines' old inner loop verbatim, including the
// `find(std::string(key))` temporary per probe. Keys are 24+ bytes so the
// std::string materialization actually allocates (no SSO refuge), as real
// user/url keys do.
//
// Streams:
//   Uniform  — every key equally likely (worst case for caching).
//   Zipf     — skew 1.1 over the universe (the paper's web-log regime;
//              the acceptance target is >= 2x here).
//   Churn    — a hot window sliding over a large universe: hits on the
//              window plus a steady stream of first-seen inserts, like
//              DINC monitor turnover.
//   ZipfCold — the same Zipf skew over a 16x larger universe, so the
//              resident table outgrows the fast caches and probes are
//              memory-bound: the regime the batched plane (§5.8) targets.
//
// BM_FlatBatch is the batched inner loop: whole-batch HashBatch digests,
// probes prefetched kProbePrefetchDistance ahead. Its batch=1 argument
// degenerates to BM_Flat (the scalar walk); the simd arg mirrors the
// job-level --simd= flag. BM_HashBatch digests each stream's keys in
// kBatchRecords batches with the tier pinned (scalar, AVX2, AVX-512), and
// BM_Mix64AffineBatch times the tier's hash-mix kernel alone: the
// measurements behind Mix64AffineBatch's dispatch.
//
// Run: bench_micro_hash_table [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/batch_hash.h"
#include "src/util/flat_table.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"
#include "src/util/random.h"
#include "src/util/simd_dispatch.h"

namespace onepass {
namespace {

constexpr uint64_t kUniverse = 1 << 16;
constexpr size_t kStreamLen = 1 << 20;
constexpr uint64_t kChurnUniverse = 1 << 20;
constexpr uint64_t kChurnWindow = 1 << 12;

enum class StreamKind { kUniform, kZipf, kChurn, kZipfCold };

std::string MakeKey(uint64_t id) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "user_%012llu_segment_%04llu",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(id % 7919));
  return buf;
}

// Key ids for one pass over the stream, deterministic per kind.
const std::vector<uint32_t>& StreamIds(StreamKind kind) {
  static const std::vector<uint32_t> uniform = [] {
    Xoshiro256StarStar rng(42);
    std::vector<uint32_t> ids(kStreamLen);
    for (auto& id : ids) {
      id = static_cast<uint32_t>(rng.NextBounded(kUniverse));
    }
    return ids;
  }();
  static const std::vector<uint32_t> zipf = [] {
    Xoshiro256StarStar rng(43);
    ZipfGenerator z(kUniverse, 1.1);
    std::vector<uint32_t> ids(kStreamLen);
    for (auto& id : ids) id = static_cast<uint32_t>(z.Next(&rng));
    return ids;
  }();
  static const std::vector<uint32_t> zipf_cold = [] {
    Xoshiro256StarStar rng(45);
    ZipfGenerator z(kChurnUniverse, 1.1);
    std::vector<uint32_t> ids(kStreamLen);
    for (auto& id : ids) id = static_cast<uint32_t>(z.Next(&rng));
    return ids;
  }();
  static const std::vector<uint32_t> churn = [] {
    Xoshiro256StarStar rng(44);
    std::vector<uint32_t> ids(kStreamLen);
    for (size_t i = 0; i < ids.size(); ++i) {
      // The hot window advances steadily; 7/8 of tuples hit it, the rest
      // are uniform cold keys (mostly first-seen inserts).
      const uint64_t base = (i * kChurnWindow / kStreamLen) *
                            (kChurnUniverse - kChurnWindow) / kChurnWindow;
      ids[i] = rng.NextBounded(8) < 7
                   ? static_cast<uint32_t>(base + rng.NextBounded(kChurnWindow))
                   : static_cast<uint32_t>(rng.NextBounded(kChurnUniverse));
    }
    return ids;
  }();
  switch (kind) {
    case StreamKind::kUniform:
      return uniform;
    case StreamKind::kZipf:
      return zipf;
    case StreamKind::kChurn:
      return churn;
    case StreamKind::kZipfCold:
      return zipf_cold;
  }
  return uniform;
}

const std::vector<std::string>& Keys(StreamKind kind) {
  static const std::vector<std::string> small = [] {
    std::vector<std::string> keys(kUniverse);
    for (uint64_t i = 0; i < kUniverse; ++i) keys[i] = MakeKey(i);
    return keys;
  }();
  static const std::vector<std::string> large = [] {
    std::vector<std::string> keys(kChurnUniverse);
    for (uint64_t i = 0; i < kChurnUniverse; ++i) keys[i] = MakeKey(i);
    return keys;
  }();
  return kind == StreamKind::kChurn || kind == StreamKind::kZipfCold
             ? large
             : small;
}

// 8-byte counter "state", combined by addition — the shape of every
// algebraic aggregate in the workloads.
void CombineState(std::string* state) {
  uint64_t c;
  std::memcpy(&c, state->data(), sizeof(c));
  ++c;
  std::memcpy(state->data(), &c, sizeof(c));
}

void BM_Legacy(benchmark::State& state) {
  const auto kind = static_cast<StreamKind>(state.range(0));
  const auto& ids = StreamIds(kind);
  const auto& keys = Keys(kind);
  const std::string init(8, '\0');
  for (auto _ : state) {
    std::unordered_map<std::string, std::string> table;
    for (uint32_t id : ids) {
      const std::string_view key = keys[id];
      auto it = table.find(std::string(key));
      if (it != table.end()) {
        CombineState(&it->second);
      } else {
        table.emplace(std::string(key), init);
      }
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
}

void BM_Flat(benchmark::State& state) {
  const auto kind = static_cast<StreamKind>(state.range(0));
  const auto& ids = StreamIds(kind);
  const auto& keys = Keys(kind);
  const UniversalHash h = UniversalHashFamily(20118011).At(2);
  const std::string init(8, '\0');
  std::string scratch;
  FlatTable table;
  for (auto _ : state) {
    table.Clear();
    for (uint32_t id : ids) {
      const std::string_view key = keys[id];
      // The engines' flat inner loop: one digest, probe, combine through
      // the scratch bridge or insert.
      const uint64_t digest = h(key);
      const uint32_t found = table.Find(key, digest);
      if (found != FlatTable::kNoEntry) {
        const std::string_view cur = table.value_at(found);
        scratch.assign(cur.data(), cur.size());
        CombineState(&scratch);
        table.set_value(found, scratch);
      } else {
        bool inserted = false;
        const uint32_t idx = table.FindOrInsert(key, digest, &inserted);
        table.set_value(idx, init);
      }
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
}

// The batched data plane on the same update pattern: digest the whole
// batch with HashBatch, then probe with record i+kProbePrefetchDistance's
// ctrl line already in flight. args: (stream, batch, simd 0/1).
void BM_FlatBatch(benchmark::State& state) {
  const auto kind = static_cast<StreamKind>(state.range(0));
  const size_t batch = static_cast<size_t>(state.range(1));
  const SimdTier tier =
      state.range(2) != 0 ? CurrentSimdTier() : SimdTier::kScalar;
  const auto& ids = StreamIds(kind);
  const auto& keys = Keys(kind);
  const UniversalHash h = UniversalHashFamily(20118011).At(2);
  const std::string init(8, '\0');
  std::string scratch;
  std::vector<std::string_view> views(batch);
  std::vector<uint64_t> digests(batch);
  FlatTable table;
  for (auto _ : state) {
    table.Clear();
    for (size_t base = 0; base < ids.size(); base += batch) {
      const size_t n = std::min(batch, ids.size() - base);
      // Staging a whole batch lets the gather overlap: prefetch every
      // string object, then stage views while prefetching the key bytes
      // HashBatch is about to read. Tuple-at-a-time has no such window —
      // tiny batches get no overlap, so skip the extra prefetch traffic.
      if (n >= 8) {
        for (size_t i = 0; i < n; ++i) {
          __builtin_prefetch(&keys[ids[base + i]], 0, 1);
        }
        for (size_t i = 0; i < n; ++i) {
          views[i] = keys[ids[base + i]];
          __builtin_prefetch(views[i].data(), 0, 1);
        }
      } else {
        for (size_t i = 0; i < n; ++i) views[i] = keys[ids[base + i]];
      }
      h.HashBatch(views.data(), n, digests.data(), tier);
      constexpr size_t kD = kProbePrefetchDistance;
      const auto probe_one = [&](size_t i) {
        const std::string_view key = views[i];
        const uint32_t found = table.Find(key, digests[i]);
        if (found != FlatTable::kNoEntry) {
          const std::string_view cur = table.value_at(found);
          scratch.assign(cur.data(), cur.size());
          CombineState(&scratch);
          table.set_value(found, scratch);
        } else {
          bool inserted = false;
          const uint32_t idx = table.FindOrInsert(key, digests[i], &inserted);
          table.set_value(idx, init);
        }
      };
      size_t i = 0;
      if (n > 3 * kD) {
        for (; i < n - 3 * kD; ++i) {
          table.PrefetchProbe(digests[i + 3 * kD]);
          table.PrefetchEntry(digests[i + 2 * kD]);
          table.PrefetchKey(digests[i + kD]);
          probe_one(i);
        }
      }
      for (; i < n; ++i) {
        if (i + 2 * kD < n) table.PrefetchEntry(digests[i + 2 * kD]);
        if (i + kD < n) table.PrefetchKey(digests[i + kD]);
        probe_one(i);
      }
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
  state.SetLabel("tier=" + std::string(SimdTierName(tier)));
}

// The tier a benchmark arg names, or scalar on a CPU without it; the
// benchmark's label names the tier that ran. (A skipped benchmark would
// leave an empty time in the CSV that CI's perf-smoke step parses.)
SimdTier RunnableTier(int64_t arg) {
  const auto tier = static_cast<SimdTier>(arg);
  return SimdTierSupported(tier) ? tier : SimdTier::kScalar;
}

// HashBatch over the stream's keys, kBatchRecords per call, at a pinned
// tier. args: (stream, tier as SimdTier's value).
void BM_HashBatch(benchmark::State& state) {
  const auto kind = static_cast<StreamKind>(state.range(0));
  const SimdTier tier = RunnableTier(state.range(1));
  const auto& ids = StreamIds(kind);
  const auto& keys = Keys(kind);
  const UniversalHash h = UniversalHashFamily(20118011).At(2);
  std::vector<std::string_view> views(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) views[i] = keys[ids[i]];
  std::vector<uint64_t> digests(kBatchRecords);
  for (auto _ : state) {
    for (size_t base = 0; base < views.size(); base += kBatchRecords) {
      const size_t n = std::min(kBatchRecords, views.size() - base);
      h.HashBatch(views.data() + base, n, digests.data(), tier);
      benchmark::DoNotOptimize(digests.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(views.size()));
  state.SetLabel("tier=" + std::string(SimdTierName(tier)));
}

// The hash-mix kernel alone on one kBatchRecords batch. args: (tier).
void BM_Mix64AffineBatch(benchmark::State& state) {
  const SimdTier tier = RunnableTier(state.range(0));
  Xoshiro256StarStar rng(0x31c);
  std::vector<uint64_t> xs(kBatchRecords);
  for (auto& x : xs) x = rng.Next();
  const uint64_t a = rng.Next() | 1, b = rng.Next();
  for (auto _ : state) {
    Mix64AffineBatch(xs.data(), xs.size(), a, b, tier);
    benchmark::DoNotOptimize(xs.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xs.size()));
  state.SetLabel("tier=" + std::string(SimdTierName(tier)));
}

BENCHMARK(BM_Legacy)
    ->Arg(static_cast<int>(StreamKind::kUniform))
    ->Arg(static_cast<int>(StreamKind::kZipf))
    ->Arg(static_cast<int>(StreamKind::kChurn))
    ->Arg(static_cast<int>(StreamKind::kZipfCold))
    ->ArgName("stream")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Flat)
    ->Arg(static_cast<int>(StreamKind::kUniform))
    ->Arg(static_cast<int>(StreamKind::kZipf))
    ->Arg(static_cast<int>(StreamKind::kChurn))
    ->Arg(static_cast<int>(StreamKind::kZipfCold))
    ->ArgName("stream")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FlatBatch)
    ->ArgNames({"stream", "batch", "simd"})
    ->Args({static_cast<int>(StreamKind::kZipf), 1, 0})
    ->Args({static_cast<int>(StreamKind::kZipf), 64, 0})
    ->Args({static_cast<int>(StreamKind::kZipf), 64, 1})
    ->Args({static_cast<int>(StreamKind::kZipfCold), 1, 0})
    ->Args({static_cast<int>(StreamKind::kZipfCold), 64, 0})
    ->Args({static_cast<int>(StreamKind::kZipfCold), 64, 1})
    ->Args({static_cast<int>(StreamKind::kZipfCold), 128, 1})
    ->Args({static_cast<int>(StreamKind::kZipfCold), 256, 1})
    ->Args({static_cast<int>(StreamKind::kChurn), 64, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HashBatch)
    ->ArgNames({"stream", "tier"})
    ->ArgsProduct({{static_cast<int>(StreamKind::kUniform),
                    static_cast<int>(StreamKind::kZipf),
                    static_cast<int>(StreamKind::kChurn),
                    static_cast<int>(StreamKind::kZipfCold)},
                   {static_cast<int>(SimdTier::kScalar),
                    static_cast<int>(SimdTier::kAvx2),
                    static_cast<int>(SimdTier::kAvx512)}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mix64AffineBatch)
    ->ArgName("tier")
    ->Arg(static_cast<int>(SimdTier::kScalar))
    ->Arg(static_cast<int>(SimdTier::kAvx2))
    ->Arg(static_cast<int>(SimdTier::kAvx512));

}  // namespace
}  // namespace onepass
