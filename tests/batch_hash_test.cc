// Batch hashing kernels (DESIGN.md §5.8): UniversalHash::HashBatch must
// equal the scalar operator() digest for every key at every SIMD tier —
// the two share the FNV core, and the vectorized Mix64+affine finalize is
// bit-exact 64-bit arithmetic — KvBatchReader must decode exactly the
// records KvBufferReader yields, in order, at every capacity, and
// ConsumeBatched must hand its body every record once, in that order, with
// its digest, across batch and prefetch-pipeline boundaries.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/engine/batch_consume.h"
#include "src/util/batch_hash.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"
#include "src/util/random.h"
#include "src/util/simd_dispatch.h"

namespace onepass {
namespace {

std::vector<std::string> FuzzKeys(size_t n, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Lengths 0..64 cover the FNV tail cases on both sides of the 8-byte
    // stride, including empty keys.
    const size_t len = rng.NextBounded(65);
    std::string k(len, '\0');
    for (size_t j = 0; j < len; ++j) {
      k[j] = static_cast<char>(rng.Next() & 0xff);
    }
    keys.push_back(std::move(k));
  }
  return keys;
}

TEST(BatchHashTest, HashBatchMatchesScalarAtEveryTier) {
  const UniversalHashFamily family(20118011);
  const std::vector<std::string> keys = FuzzKeys(513, 0xabc);
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<uint64_t> digests(views.size());
  for (int fn = 0; fn < 4; ++fn) {
    const UniversalHash h = family.At(fn);
    for (const SimdTier tier :
         {SimdTier::kScalar, SimdTier::kSse42, SimdTier::kAvx2,
          SimdTier::kAvx512, SimdTier::kArmCrc}) {
      // Unsupported tiers are valid inputs: the kernel falls back.
      h.HashBatch(views.data(), views.size(), digests.data(), tier);
      for (size_t i = 0; i < views.size(); ++i) {
        ASSERT_EQ(digests[i], h(views[i]))
            << "fn=" << fn << " tier=" << SimdTierName(tier) << " i=" << i
            << " len=" << views[i].size();
      }
    }
  }
}

TEST(BatchHashTest, HashBatchHandlesShortAndEmptyBatches) {
  const UniversalHash h = UniversalHashFamily(7).At(0);
  const std::string key = "solo";
  const std::string_view view = key;
  uint64_t digest = 0;
  h.HashBatch(&view, 1, &digest);
  EXPECT_EQ(digest, h(key));
  h.HashBatch(nullptr, 0, nullptr);  // n == 0 must be a no-op
}

TEST(BatchHashTest, Mix64AffineBatchMatchesScalarMath) {
  Xoshiro256StarStar rng(0xdef);
  // 259 is deliberately not a multiple of the 4-lane AVX2 stride.
  std::vector<uint64_t> input(259);
  for (auto& x : input) x = rng.Next();
  const uint64_t a = rng.Next() | 1;  // odd multiplier, as the family draws
  const uint64_t b = rng.Next();
  std::vector<uint64_t> want = input;
  Mix64AffineBatch(want.data(), want.size(), a, b, SimdTier::kScalar);
  for (size_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(want[i], a * Mix64(input[i]) + b) << "i=" << i;
  }
  for (const SimdTier tier :
       {SimdTier::kSse42, SimdTier::kAvx2, SimdTier::kAvx512,
        SimdTier::kArmCrc}) {
    std::vector<uint64_t> got = input;
    Mix64AffineBatch(got.data(), got.size(), a, b, tier);
    EXPECT_EQ(got, want) << "tier=" << SimdTierName(tier);
  }
}

TEST(BatchHashTest, KvBatchReaderMatchesScalarReader) {
  Xoshiro256StarStar rng(0x5ca1e);
  KvBuffer buf;
  for (int i = 0; i < 501; ++i) {
    const size_t klen = rng.NextBounded(24);
    const size_t vlen = rng.NextBounded(48);
    std::string k(klen, '\0'), v(vlen, '\0');
    for (auto& c : k) c = static_cast<char>('a' + rng.NextBounded(26));
    for (auto& c : v) c = static_cast<char>(rng.Next() & 0xff);
    buf.Append(k, v);
  }
  std::vector<std::pair<std::string, std::string>> expect;
  {
    KvBufferReader reader(buf);
    std::string_view k, v;
    while (reader.Next(&k, &v)) expect.emplace_back(k, v);
  }
  for (const size_t capacity : {1, 7, 64, 501, 1000}) {
    KvBatchReader reader(buf, capacity);
    EXPECT_EQ(reader.capacity(), capacity);
    size_t seen = 0;
    for (;;) {
      const size_t n = reader.Fill();
      if (n == 0) break;
      ASSERT_LE(n, capacity);
      for (size_t i = 0; i < n; ++i, ++seen) {
        ASSERT_LT(seen, expect.size()) << "capacity=" << capacity;
        ASSERT_EQ(reader.keys()[i], expect[seen].first);
        ASSERT_EQ(reader.values()[i], expect[seen].second);
      }
    }
    EXPECT_EQ(seen, expect.size()) << "capacity=" << capacity;
  }
}

// Probe target that checks every prefetch names the record exactly its
// stage's distance ahead of the one the body sees next.
struct AheadCheckingProbe {
  const std::vector<uint64_t>* digests;  // h(key) per record, in order
  const size_t* seen;                    // records the body has seen
  mutable size_t calls = 0;

  void Check(uint64_t digest, size_t ahead) const {
    ++calls;
    const size_t at = *seen + ahead;
    ASSERT_LT(at, digests->size());
    EXPECT_EQ(digest, (*digests)[at]) << "record " << at;
  }
  void PrefetchProbe(uint64_t d) const { Check(d, 3 * kProbePrefetchDistance); }
  void PrefetchEntry(uint64_t d) const { Check(d, 2 * kProbePrefetchDistance); }
  void PrefetchKey(uint64_t d) const { Check(d, kProbePrefetchDistance); }
};

TEST(BatchHashTest, ConsumeBatchedVisitsEveryRecordInOrder) {
  constexpr size_t kD = kProbePrefetchDistance;
  const UniversalHash h = UniversalHashFamily(0xba7c).At(2);
  Xoshiro256StarStar rng(0xc0115);
  std::vector<uint64_t> scratch;
  // Empty and one-record segments, both sides of the steady-state
  // threshold (3 * kD), of one batch, and of two batches plus a pipeline.
  for (const size_t records :
       {size_t{0}, size_t{1}, 3 * kD - 1, 3 * kD, 3 * kD + 1,
        kBatchRecords - 1, kBatchRecords, kBatchRecords + 1,
        2 * kBatchRecords + 3 * kD + 1}) {
    KvBuffer segment;
    for (size_t i = 0; i < records; ++i) {
      segment.Append("k" + std::to_string(rng.NextBounded(100)),
                     std::to_string(i));
    }
    std::vector<std::pair<std::string_view, std::string_view>> want;
    std::vector<uint64_t> digests;
    KvBufferReader reader(segment);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      want.emplace_back(k, v);
      digests.push_back(h(k));
    }
    ASSERT_EQ(want.size(), records);

    size_t seen = 0;
    const AheadCheckingProbe probe{&digests, &seen};
    ConsumeBatched(segment, h, &scratch, probe,
                   [&](std::string_view key, std::string_view value,
                       uint64_t digest) {
                     ASSERT_LT(seen, want.size());
                     EXPECT_EQ(key, want[seen].first);
                     EXPECT_EQ(value, want[seen].second);
                     EXPECT_EQ(digest, digests[seen]);
                     ++seen;
                   });
    EXPECT_EQ(seen, records) << records << " records";
    EXPECT_EQ(probe.calls > 0, records > kD) << records << " records";
  }
}

}  // namespace
}  // namespace onepass
