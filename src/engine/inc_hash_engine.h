// IncHashEngine: incremental hash processing (§4.2).
//
// Requires the init()/cb()/fn() decomposition (IncrementalReducer). Map
// output arrives as key-state tuples (the initialize function ran map-side).
// The reducer maintains an in-memory hash table H from key to the state of
// the computation:
//   - key in H            -> combine the tuple into the state (and give the
//                            workload its early-output hook);
//   - key new, memory free-> insert it (first-come residency);
//   - key new, memory full-> hash the tuple (h3) to one of h disk buckets
//                            through paged write buffers.
// After end of input, every resident key is finalized straight from memory
// — resident and spilled key sets are disjoint, so this is exact — and the
// disk buckets are processed one at a time with the same procedure.
//
// Tuples of resident keys never touch disk: when memory covers all distinct
// key-states (size Delta), I/O is eliminated entirely; with memory >=
// sqrt(Delta), spilled tuples are written and read exactly once (no
// recursion) — the Hybrid-Cache analysis the paper cites. Recursion is
// still implemented as a fallback for under-provisioned bucket counts.
//
// The state table H is an arena-backed FlatTable: each tuple is hashed
// once with h3, the digest shared between the table probe and the
// spill-bucket route.

#ifndef ONEPASS_ENGINE_INC_HASH_ENGINE_H_
#define ONEPASS_ENGINE_INC_HASH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/engine/group_by_engine.h"
#include "src/engine/hash_bucket_pass.h"
#include "src/storage/bucket_manager.h"
#include "src/util/flat_table.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class IncHashEngine : public GroupByEngine {
 public:
  explicit IncHashEngine(const EngineContext& ctx);

  Status Consume(const KvBuffer& segment, bool sorted) override;
  Status Finish() override;
  // State table entries in insertion order (FlatTable iteration is
  // deterministic, so the restored table reproduces it exactly), plus the
  // spill buckets.
  Status SaveState(CheckpointWriter* w) const override;
  Status RestoreState(CheckpointReader* r) override;

  // Number of disk buckets so a bucket's distinct keys fit in memory, given
  // `expected_keys` distinct keys and a per-entry budget.
  static int ChooseNumBuckets(uint64_t expected_keys, uint64_t memory_bytes,
                              uint64_t entry_cost, uint64_t page_bytes);

  // Effective write-buffer page for h buckets under `memory_bytes`: the
  // configured page, clamped so all buffers together use at most half the
  // memory (never below 512 bytes).
  static uint64_t ClampedPageBytes(uint64_t page_bytes,
                                   uint64_t memory_bytes, int h);

 private:
  FlatTable table_;  // key -> state
  std::string scratch_state_;
  std::vector<uint64_t> digest_scratch_;  // batch-plane digests (§5.8)
  uint64_t resident_bytes_ = 0;
  uint64_t capacity_bytes_ = 0;
  int num_buckets_;
  std::unique_ptr<BucketFileManager> buckets_;
  std::unique_ptr<BucketPassProcessor> bucket_pass_;
  UniversalHash h3_;
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_INC_HASH_ENGINE_H_
