#include "src/util/batch_hash.h"

#include "src/util/hash.h"

#if defined(__x86_64__) || defined(__i386__)
#define ONEPASS_BATCH_HASH_X86 1
#include <immintrin.h>
#endif

namespace onepass {
namespace {

void Mix64AffineScalar(uint64_t* xs, size_t n, uint64_t a, uint64_t b) {
  for (size_t i = 0; i < n; ++i) {
    xs[i] = a * Mix64(xs[i]) + b;
  }
}

#if defined(ONEPASS_BATCH_HASH_X86)

// 64-bit lane-wise multiply from 32x32 partial products (AVX2 has no
// _mm256_mullo_epi64): x*y mod 2^64 = lo(x)lo(y) + ((lo(x)hi(y) +
// hi(x)lo(y)) << 32).
__attribute__((target("avx2"))) inline __m256i Mullo64(__m256i x, __m256i y) {
  const __m256i lo = _mm256_mul_epu32(x, y);
  const __m256i x_hi = _mm256_srli_epi64(x, 32);
  const __m256i y_hi = _mm256_srli_epi64(y, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(x_hi, y),
                                         _mm256_mul_epu32(x, y_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void Mix64AffineAvx2(uint64_t* xs, size_t n,
                                                     uint64_t a, uint64_t b) {
  const __m256i c1 =
      _mm256_set1_epi64x(static_cast<int64_t>(0xbf58476d1ce4e5b9ULL));
  const __m256i c2 =
      _mm256_set1_epi64x(static_cast<int64_t>(0x94d049bb133111ebULL));
  const __m256i va = _mm256_set1_epi64x(static_cast<int64_t>(a));
  const __m256i vb = _mm256_set1_epi64x(static_cast<int64_t>(b));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i));
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
    x = Mullo64(x, c1);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
    x = Mullo64(x, c2);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
    x = _mm256_add_epi64(Mullo64(x, va), vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(xs + i), x);
  }
  Mix64AffineScalar(xs + i, n - i, a, b);
}

__attribute__((target("avx512f,avx512dq,avx512vl"))) void Mix64AffineAvx512(
    uint64_t* xs, size_t n, uint64_t a, uint64_t b) {
  // vpmullq (AVX-512DQ) is a true lane-wise 64-bit multiply, so the whole
  // Mix64 + affine chain runs 8 lanes per instruction stream. The shifts
  // use the all-lanes zero-masked form, which computes the same bits as
  // _mm512_srli_epi64 without GCC 12's -Wmaybe-uninitialized false
  // positive on that intrinsic's undefined pass-through operand.
  const __m512i c1 =
      _mm512_set1_epi64(static_cast<int64_t>(0xbf58476d1ce4e5b9ULL));
  const __m512i c2 =
      _mm512_set1_epi64(static_cast<int64_t>(0x94d049bb133111ebULL));
  const __m512i va = _mm512_set1_epi64(static_cast<int64_t>(a));
  const __m512i vb = _mm512_set1_epi64(static_cast<int64_t>(b));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i x = _mm512_loadu_si512(xs + i);
    x = _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, 30));
    x = _mm512_mullo_epi64(x, c1);
    x = _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, 27));
    x = _mm512_mullo_epi64(x, c2);
    x = _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, 31));
    x = _mm512_add_epi64(_mm512_mullo_epi64(x, va), vb);
    _mm512_storeu_si512(xs + i, x);
  }
  Mix64AffineScalar(xs + i, n - i, a, b);
}

#endif  // ONEPASS_BATCH_HASH_X86

}  // namespace

void Mix64AffineBatch(uint64_t* xs, size_t n, uint64_t a, uint64_t b,
                      SimdTier tier) {
#if defined(ONEPASS_BATCH_HASH_X86)
  // Each tier runs its own kernel, so an AVX2-only CPU mixes 4 lanes
  // wide: its emulated multiply still beats the scalar imul chain
  // (bench_micro_hash_table's BM_Mix64AffineBatch, EXPERIMENTS.md).
  if (tier == SimdTier::kAvx512 && SimdTierSupported(SimdTier::kAvx512)) {
    Mix64AffineAvx512(xs, n, a, b);
    return;
  }
  if (tier == SimdTier::kAvx2 && SimdTierSupported(SimdTier::kAvx2)) {
    Mix64AffineAvx2(xs, n, a, b);
    return;
  }
#else
  (void)tier;
#endif
  Mix64AffineScalar(xs, n, a, b);
}

void UniversalHash::HashBatch(const std::string_view* keys, size_t n,
                              uint64_t* out, SimdTier tier) const {
  // Pass 1: FNV cores. Each core is a serial multiply chain over its own
  // key (~4 cycles per 8-byte word), but neighbouring keys are independent
  // — four-wide unrolling keeps four chains in flight so the multiplier
  // stays busy instead of waiting out each chain's latency.
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i] = hash_internal::FnvCore(keys[i], seed_);
    out[i + 1] = hash_internal::FnvCore(keys[i + 1], seed_);
    out[i + 2] = hash_internal::FnvCore(keys[i + 2], seed_);
    out[i + 3] = hash_internal::FnvCore(keys[i + 3], seed_);
  }
  for (; i < n; ++i) {
    out[i] = hash_internal::FnvCore(keys[i], seed_);
  }
  // Pass 2: Mix64 finalizer + the (a, b) affine step, tier-dispatched.
  Mix64AffineBatch(out, n, a_, b_, tier);
}

}  // namespace onepass
