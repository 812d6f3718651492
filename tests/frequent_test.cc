// Tests for the FREQUENT (Misra–Gries) sketch, including the theoretical
// guarantees DINC-hash relies on (§4.3).

#include "src/sketch/frequent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/util/random.h"

// Counts every global operator new in this test binary, so a test can
// assert that a code path does not allocate per call.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Kept out of line so the compiler pairs each new with its delete rather
// than an inlined free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace onepass {
namespace {

std::string Key(uint64_t k) { return "k" + std::to_string(k); }

TEST(FrequentTest, InsertAndHit) {
  FrequentSketch sketch(2);
  auto r = sketch.Offer("a");
  EXPECT_EQ(r.action, FrequentSketch::Action::kInserted);
  r = sketch.Offer("a");
  EXPECT_EQ(r.action, FrequentSketch::Action::kUpdated);
  EXPECT_EQ(sketch.EstimateCount("a"), 2u);
  EXPECT_EQ(sketch.size(), 1u);
}

TEST(FrequentTest, DecrementAllOnSaturatedMiss) {
  FrequentSketch sketch(2);
  sketch.Offer("a");
  sketch.Offer("a");
  sketch.Offer("b");
  // All counters > 0: offering c decrements everyone and rejects.
  auto r = sketch.Offer("c");
  EXPECT_EQ(r.action, FrequentSketch::Action::kRejected);
  EXPECT_EQ(sketch.EstimateCount("a"), 1u);
  EXPECT_EQ(sketch.EstimateCount("b"), 0u);
  EXPECT_EQ(sketch.EstimateCount("c"), 0u);  // not monitored
  // Now b has count 0: next miss evicts it.
  r = sketch.Offer("d");
  EXPECT_EQ(r.action, FrequentSketch::Action::kEvicted);
  EXPECT_EQ(r.evicted_key, "b");
  EXPECT_EQ(sketch.EstimateCount("d"), 1u);
}

TEST(FrequentTest, ReleaseFreesSlot) {
  FrequentSketch sketch(1);
  auto r = sketch.Offer("a");
  sketch.Release(r.slot);
  EXPECT_EQ(sketch.size(), 0u);
  EXPECT_TRUE(sketch.HasFreeSlot());
  r = sketch.Offer("b");
  EXPECT_EQ(r.action, FrequentSketch::Action::kInserted);
}

TEST(FrequentTest, PrimitivesMatchOfferSemantics) {
  FrequentSketch a(3), b(3);
  Xoshiro256StarStar rng(21);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = Key(rng.NextBounded(8));
    a.Offer(key);
    // Same policy through primitives.
    const int slot = b.Find(key);
    if (slot >= 0) {
      b.Hit(slot);
    } else if (b.HasFreeSlot()) {
      b.InsertIntoFree(key);
    } else if (b.MinCount() == 0) {
      b.ReplaceSlot(b.MinSlot(), key);
    } else {
      b.DecrementAll();
    }
  }
  EXPECT_EQ(a.offers(), b.offers());
  EXPECT_EQ(a.decrements(), b.decrements());
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(a.EstimateCount(Key(k)), b.EstimateCount(Key(k))) << k;
  }
}

// The classic Misra–Gries guarantee: for every key,
//   f - M/(s+1) <= estimate <= f.
TEST(FrequentTest, ErrorBoundHoldsOnRandomStreams) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256StarStar rng(seed);
    ZipfGenerator zipf(500, 1.0);
    const size_t s = 20;
    FrequentSketch sketch(s);
    std::map<std::string, uint64_t> truth;
    const uint64_t m = 50'000;
    for (uint64_t i = 0; i < m; ++i) {
      const std::string key = Key(zipf.Next(&rng));
      ++truth[key];
      sketch.Offer(key);
    }
    const uint64_t max_err = m / (s + 1);
    for (const auto& [key, f] : truth) {
      const uint64_t est = sketch.EstimateCount(key);
      EXPECT_LE(est, f) << key;
      EXPECT_GE(est + max_err, f) << key;
    }
  }
}

// The paper's in-memory combine guarantee: at least
// M' = sum_i max(0, f_i - M/(s+1)) tuples of the top keys are absorbed by
// monitored slots. We verify via the error bound on hot keys: a key with
// f > M/(s+1) must still be monitored at the end.
TEST(FrequentTest, HotKeysStayMonitored) {
  Xoshiro256StarStar rng(77);
  ZipfGenerator zipf(10'000, 1.2);
  const size_t s = 64;
  FrequentSketch sketch(s);
  std::map<std::string, uint64_t> truth;
  const uint64_t m = 200'000;
  for (uint64_t i = 0; i < m; ++i) {
    const std::string key = Key(zipf.Next(&rng));
    ++truth[key];
    sketch.Offer(key);
  }
  const uint64_t threshold = m / (s + 1);
  for (const auto& [key, f] : truth) {
    if (f > threshold) {
      EXPECT_GE(sketch.Find(key), 0) << key << " f=" << f;
    }
  }
}

// Coverage lower bound gamma = t/(t + M/(s+1)) must never exceed the true
// coverage t/f (§4.3's estimate is safe).
TEST(FrequentTest, CoverageLowerBoundIsSafe) {
  Xoshiro256StarStar rng(31);
  ZipfGenerator zipf(2'000, 1.1);
  const size_t s = 32;
  FrequentSketch sketch(s);
  std::map<std::string, uint64_t> truth;
  for (uint64_t i = 0; i < 80'000; ++i) {
    const std::string key = Key(zipf.Next(&rng));
    ++truth[key];
    sketch.Offer(key);
  }
  for (size_t slot = 0; slot < s; ++slot) {
    if (!sketch.SlotOccupied(static_cast<int>(slot))) continue;
    const std::string key(sketch.Key(static_cast<int>(slot)));
    const double gamma = sketch.CoverageLowerBound(static_cast<int>(slot));
    const double true_coverage =
        static_cast<double>(sketch.CoverageCount(static_cast<int>(slot))) /
        static_cast<double>(truth[key]);
    EXPECT_LE(gamma, true_coverage + 1e-9) << key;
    EXPECT_GE(gamma, 0.0);
    EXPECT_LE(gamma, 1.0);
  }
}

TEST(FrequentTest, ColdestSlotsAscending) {
  FrequentSketch sketch(4);
  for (int i = 0; i < 1; ++i) sketch.Offer("a");
  for (int i = 0; i < 3; ++i) sketch.Offer("b");
  for (int i = 0; i < 7; ++i) sketch.Offer("c");
  for (int i = 0; i < 2; ++i) sketch.Offer("d");
  int cold[FrequentSketch::kMaxColdestSlots];
  ASSERT_EQ(sketch.ColdestSlots(4, cold), 4);
  EXPECT_EQ(sketch.Key(cold[0]), "a");
  EXPECT_EQ(sketch.Key(cold[1]), "d");
  EXPECT_EQ(sketch.Key(cold[2]), "b");
  EXPECT_EQ(sketch.Key(cold[3]), "c");
  // Truncation works, and asking for more than is occupied returns all.
  EXPECT_EQ(sketch.ColdestSlots(2, cold), 2);
  EXPECT_EQ(sketch.ColdestSlots(8, cold), 4);

  // Equal counts go to the lower slot id, whatever the insertion order.
  // Slots fill 0, 1, 2, 3; after the release, "e" reuses slot 0 and ties
  // with the older "b" (slot 1) and "d" (slot 3) at count 1.
  FrequentSketch ties(4);
  for (const char* key : {"a", "b", "c", "d"}) ties.Offer(key);
  ties.Offer("a");
  ties.Offer("c");
  ties.Release(ties.Find("a"));
  ASSERT_EQ(ties.Offer("e").slot, 0);
  ASSERT_EQ(ties.ColdestSlots(4, cold), 4);
  EXPECT_EQ(ties.Key(cold[0]), "e");
  EXPECT_EQ(ties.Key(cold[1]), "b");
  EXPECT_EQ(ties.Key(cold[2]), "d");
  EXPECT_EQ(ties.Key(cold[3]), "c");
  EXPECT_EQ(ties.MinSlot(), 0);
}

// The count index against an ordered reference: a std::set of
// (raw count, slot) kept beside the sketch. Seeded random sequences of the
// primitives DINC composes (plus Release, ReplaceSlot on any occupied
// slot, and checkpoint round trips into a fresh sketch) must leave
// MinSlot, MinCount and ColdestSlots(1..8) exactly as the set orders them.
TEST(FrequentTest, CountIndexMatchesOrderedReference) {
  for (const size_t capacity : {1u, 2u, 7u, 64u, 1000u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      Xoshiro256StarStar rng(seed * 7919 + capacity);
      ZipfGenerator zipf(2 * capacity + 5, 0.8);
      auto sketch = std::make_unique<FrequentSketch>(capacity);
      std::set<std::pair<uint64_t, int>> ref;
      std::vector<uint64_t> raw(capacity, 0);
      uint64_t delta = 0;
      // The free list is a LIFO stack that starts with slot 0 on top.
      std::vector<int> free_ref;
      for (int slot = static_cast<int>(capacity) - 1; slot >= 0; --slot) {
        free_ref.push_back(slot);
      }
      auto set_raw = [&](int slot, uint64_t value) {
        ref.erase({raw[slot], slot});
        raw[slot] = value;
        ref.insert({value, slot});
      };
      auto random_occupied = [&]() {
        auto it = ref.begin();
        std::advance(it, rng.NextBounded(ref.size()));
        return it->second;
      };
      auto check = [&](int step) {
        ASSERT_EQ(sketch->size(), ref.size()) << "step " << step;
        ASSERT_EQ(sketch->MinSlot(), ref.empty() ? -1 : ref.begin()->second)
            << "step " << step;
        if (!ref.empty()) {
          ASSERT_EQ(sketch->MinCount(), ref.begin()->first - delta)
              << "step " << step;
        }
        for (int k = 1; k <= FrequentSketch::kMaxColdestSlots; ++k) {
          int cold[FrequentSketch::kMaxColdestSlots];
          const int n = sketch->ColdestSlots(k, cold);
          ASSERT_EQ(static_cast<size_t>(n),
                    std::min<size_t>(static_cast<size_t>(k), ref.size()))
              << "step " << step << " k " << k;
          auto it = ref.begin();
          for (int i = 0; i < n; ++i, ++it) {
            ASSERT_EQ(cold[i], it->second)
                << "step " << step << " k " << k << " i " << i;
          }
        }
      };
      const int steps = capacity >= 1000 ? 20'000 : 4'000;
      for (int step = 0; step < steps; ++step) {
        const uint64_t roll = rng.NextBounded(100);
        if (roll < 4 && !ref.empty()) {
          const int slot = random_occupied();
          sketch->Release(slot);
          ref.erase({raw[slot], slot});
          free_ref.push_back(slot);
        } else if (roll < 7 && !ref.empty()) {
          // Replacing a warm slot moves its node up as well as down.
          const int slot = random_occupied();
          sketch->ReplaceSlot(slot, "r" + std::to_string(step));
          set_raw(slot, delta + 1);
        } else if (roll == 7) {
          CheckpointWriter w;
          sketch->SaveTo(&w);
          auto restored = std::make_unique<FrequentSketch>(capacity);
          CheckpointReader r(w.fields());
          ASSERT_TRUE(restored->RestoreFrom(&r).ok()) << "step " << step;
          sketch = std::move(restored);
        } else {
          // One offer through the engine's primitives.
          const std::string key = Key(zipf.Next(&rng));
          const int found = sketch->Find(key);
          if (found >= 0) {
            sketch->Hit(found);
            set_raw(found, raw[found] + 1);
          } else if (sketch->HasFreeSlot()) {
            const int slot = sketch->InsertIntoFree(key);
            ASSERT_EQ(slot, free_ref.back()) << "step " << step;
            free_ref.pop_back();
            raw[slot] = delta + 1;
            ref.insert({raw[slot], slot});
          } else if (sketch->MinCount() == 0) {
            const int slot = sketch->MinSlot();
            sketch->ReplaceSlot(slot, key);
            set_raw(slot, delta + 1);
          } else {
            sketch->DecrementAll();
            ++delta;
          }
        }
        check(step);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// DINC's miss path (Find, ColdestSlots, MinCount, then ReplaceSlot or
// DecrementAll) reuses the sketch's storage: the heap and the slot keys
// never allocate, so only the key index's arena takes a block now and
// then. Before the indexed heap, each miss made about three allocations.
TEST(FrequentTest, MissPathDoesNotAllocatePerMiss) {
  const size_t capacity = 64;
  FrequentSketch sketch(capacity);
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    // 24 bytes, past std::string's inline buffer, like DINC's trigrams.
    keys.push_back("miss-path-key-" + std::to_string(1'000'000'000 + i));
  }
  std::vector<uint64_t> hashes;
  for (const std::string& k : keys) {
    hashes.push_back(FlatTable::DefaultHash(k));
  }
  Xoshiro256StarStar rng(5);
  ZipfGenerator zipf(keys.size(), 0.6);
  uint64_t misses = 0;
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t k = zipf.Next(&rng);
      const int found = sketch.Find(keys[k], hashes[k]);
      if (found >= 0) {
        sketch.Hit(found);
        continue;
      }
      ++misses;
      if (sketch.HasFreeSlot()) {
        sketch.InsertIntoFree(keys[k], hashes[k]);
        continue;
      }
      int cold[4];
      const int n_cold = sketch.ColdestSlots(4, cold);
      for (int c = 0; c < n_cold; ++c) (void)sketch.Count(cold[c]);
      if (sketch.MinCount() == 0) {
        sketch.ReplaceSlot(sketch.MinSlot(), keys[k], hashes[k]);
      } else {
        sketch.DecrementAll();
      }
    }
  };
  run(20'000);  // fill the slots and warm the index
  misses = 0;
  const uint64_t before = g_allocations.load();
  run(200'000);
  const uint64_t allocations = g_allocations.load() - before;
  ASSERT_GT(misses, 100'000u);
  EXPECT_LE(allocations * 500, misses)
      << allocations << " allocations over " << misses << " misses";
}

// A field stream written by hand, so a test can break one of the sketch's
// slot invariants at a time. `occupied` lists (slot, raw count) pairs.
KvBuffer ForgeSketch(uint64_t capacity, uint64_t delta,
                     const std::vector<uint64_t>& free_slots,
                     const std::vector<std::pair<uint64_t, uint64_t>>& occupied) {
  CheckpointWriter w;
  w.PutU64("mg.capacity", capacity);
  w.PutU64("mg.delta", delta);
  w.PutU64("mg.offers", 10);
  w.PutU64("mg.free", free_slots.size());
  for (size_t i = 0; i < free_slots.size(); ++i) {
    w.PutU64("mg.free." + std::to_string(i), free_slots[i]);
  }
  for (uint64_t slot = 0; slot < capacity; ++slot) {
    const std::string tag = std::to_string(slot);
    auto it = std::find_if(occupied.begin(), occupied.end(),
                           [&](const auto& o) { return o.first == slot; });
    w.PutU64("mg.occ." + tag, it == occupied.end() ? 0 : 1);
    if (it == occupied.end()) continue;
    const std::string key = Key(slot);
    w.PutBytes("mg.key." + tag, key);
    w.PutU64("mg.hash." + tag, FlatTable::DefaultHash(key));
    w.PutU64("mg.raw." + tag, it->second);
    w.PutU64("mg.t." + tag, 1);
  }
  return w.Take();
}

// Restores `fields` into a fresh sketch and expects a Corruption that
// names the broken invariant.
void ExpectCorruption(size_t capacity, const KvBuffer& fields,
                      std::string_view reason) {
  FrequentSketch sketch(capacity);
  CheckpointReader r(fields);
  const Status s = sketch.RestoreFrom(&r);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find(reason), std::string_view::npos) << s.ToString();
}

TEST(FrequentTest, ForgedStreamWithValidSlotsRestores) {
  FrequentSketch sketch(3);
  const KvBuffer fields = ForgeSketch(3, 1, {2, 1}, {{0, 4}});
  CheckpointReader r(fields);
  const Status s = sketch.RestoreFrom(&r);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sketch.Count(0), 3u);
  EXPECT_EQ(sketch.Find(Key(0)), 0);
  // The free list is a LIFO stack: slot 1 is taken first.
  EXPECT_EQ(sketch.Offer("x").slot, 1);
  EXPECT_EQ(sketch.Offer("y").slot, 2);
}

TEST(FrequentTest, RestoreRejectsFreeSlotPastCapacity) {
  ExpectCorruption(2, ForgeSketch(2, 0, {5}, {{0, 1}}), "out of range");
}

TEST(FrequentTest, RestoreRejectsDuplicateFreeSlot) {
  ExpectCorruption(3, ForgeSketch(3, 0, {1, 1}, {{0, 1}}), "listed twice");
}

TEST(FrequentTest, RestoreRejectsSlotBothFreeAndOccupied) {
  ExpectCorruption(2, ForgeSketch(2, 0, {0}, {{0, 1}}),
                   "both free and occupied");
}

TEST(FrequentTest, RestoreRejectsSlotNeitherFreeNorOccupied) {
  ExpectCorruption(3, ForgeSketch(3, 0, {2}, {{0, 1}}),
                   "neither free nor occupied");
}

TEST(FrequentTest, RestoreRejectsCountBelowDecrementOffset) {
  ExpectCorruption(2, ForgeSketch(2, 5, {1}, {{0, 4}}),
                   "below the decrement offset");
}

TEST(FrequentTest, CapacityOneDegeneratesGracefully) {
  FrequentSketch sketch(1);
  for (int i = 0; i < 100; ++i) {
    sketch.Offer(Key(i % 3));
  }
  EXPECT_EQ(sketch.size(), 1u);
  EXPECT_EQ(sketch.offers(), 100u);
}

}  // namespace
}  // namespace onepass
