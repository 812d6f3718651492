// Shared driver for the engines' batched consume loops (DESIGN.md §5.8).
//
// Every hash engine walks a delivered segment the same way: decode the
// views of a batch of kBatchRecords records, compute the whole batch's
// UniversalHash digests into a scratch array, then run the per-record
// body with the table probe for record i+kProbePrefetchDistance already
// prefetched. The body runs once per record in exactly KvBufferReader
// order, so the loop is byte-identical to the scalar per-record walk —
// batching only changes memory-level parallelism, never semantics.

#ifndef ONEPASS_ENGINE_BATCH_CONSUME_H_
#define ONEPASS_ENGINE_BATCH_CONSUME_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/util/batch_hash.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"

namespace onepass {

// Probe target for consume loops with nothing to warm (bucket routing,
// repartition): every stage is a no-op the compiler deletes.
struct NoProbePrefetch {
  void PrefetchProbe(uint64_t) const {}
  void PrefetchEntry(uint64_t) const {}
  void PrefetchKey(uint64_t) const {}
};

// Runs `body(key, value, digest)` for every record of `segment` in order,
// with digests[i] == h(keys[i]) precomputed per batch at the process-wide
// SIMD tier (CurrentSimdTier) and `probe`'s
// three-stage prefetch pipeline (FlatTable's ctrl word, entry, key bytes
// — see flat_table.h) staged kProbePrefetchDistance records apart ahead
// of the body. Pass NoProbePrefetch when there is no table to warm.
// `digests` is caller-owned scratch so an engine's repeated Consume calls
// reuse one allocation.
template <typename ProbeTarget, typename Body>
void ConsumeBatched(const KvBuffer& segment, const UniversalHash& h,
                    std::vector<uint64_t>* digests, const ProbeTarget& probe,
                    Body&& body) {
  constexpr size_t kD = kProbePrefetchDistance;
  KvBatchReader reader(segment, kBatchRecords);
  if (digests->size() < kBatchRecords) digests->resize(kBatchRecords);
  for (;;) {
    const size_t n = reader.Fill();
    if (n == 0) break;
    h.HashBatch(reader.keys(), n, digests->data());
    const std::string_view* keys = reader.keys();
    const std::string_view* values = reader.values();
    const uint64_t* d = digests->data();
    size_t i = 0;
    if (n > 3 * kD) {
      // Steady state: all three stages run unconditionally — the range
      // checks would cost three predictable-but-present branches per
      // record in the hottest loop of the platform.
      for (; i < n - 3 * kD; ++i) {
        probe.PrefetchProbe(d[i + 3 * kD]);
        probe.PrefetchEntry(d[i + 2 * kD]);
        probe.PrefetchKey(d[i + kD]);
        body(keys[i], values[i], d[i]);
      }
    }
    // Pipeline drain (and whole short batches).
    for (; i < n; ++i) {
      if (i + 2 * kD < n) probe.PrefetchEntry(d[i + 2 * kD]);
      if (i + kD < n) probe.PrefetchKey(d[i + kD]);
      body(keys[i], values[i], d[i]);
    }
  }
}

}  // namespace onepass

#endif  // ONEPASS_ENGINE_BATCH_CONSUME_H_
