// Batch hashing for the vectorized data plane (DESIGN.md §5.8).
//
// The batch plane computes UniversalHash digests for a whole RecordBatch
// into a scratch array (UniversalHash::HashBatch, declared in hash.h and
// implemented here), then walks the batch issuing software prefetches
// kProbePrefetchDistance slots ahead of each FlatTable probe. Digests are
// bit-identical to the scalar per-record path at every SIMD tier — the
// tier only changes how fast the Mix64+affine finalize pass runs.

#ifndef ONEPASS_UTIL_BATCH_HASH_H_
#define ONEPASS_UTIL_BATCH_HASH_H_

#include <cstddef>
#include <cstdint>

#include "src/util/simd_dispatch.h"

namespace onepass {

// How far ahead of the current record a batched probe loop prefetches the
// FlatTable control word. Roughly the depth of one memory access window:
// large enough to cover a DRAM miss at typical per-record work, small
// enough that prefetched lines are still resident when the probe arrives.
inline constexpr size_t kProbePrefetchDistance = 8;

// In place over `xs`: xs[i] = a * Mix64(xs[i]) + b. The finalize pass of
// HashBatch — a scalar loop, 4 lanes at a time under the AVX2 tier, or 8
// under AVX-512. Results are bit-identical across tiers.
void Mix64AffineBatch(uint64_t* xs, size_t n, uint64_t a, uint64_t b,
                      SimdTier tier);

}  // namespace onepass

#endif  // ONEPASS_UTIL_BATCH_HASH_H_
