// What the incremental hash engines (§4.2/§4.3) share: how they split the
// reduce memory (PlanHashMemory) and how they drain their disk buckets
// (BucketPassProcessor).
//
// INC-hash and DINC-hash spill overflow tuples to h disk buckets; at end of
// input each bucket is read back and reduced with an identical procedure:
// build a key→state table in memory, combining tuples per key, then
// finalize every key — recursively repartitioning with the next independent
// hash function if the bucket's distinct keys exceed the memory budget.
// The procedure lives here once, with the memory budget as the only
// per-engine parameter.
//
// The in-memory table is an arena-backed FlatTable (one UniversalHash
// digest per tuple per level, reused for the table probe), owned by the
// processor and recycled across passes (Clear keeps the control array and
// the arena's first block warm). Finalize order is the table's insertion
// order, so every pass is deterministic.

#ifndef ONEPASS_ENGINE_HASH_BUCKET_PASS_H_
#define ONEPASS_ENGINE_HASH_BUCKET_PASS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/engine/group_by_engine.h"
#include "src/util/flat_table.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class BucketFileManager;

// How an incremental hash engine splits the reduce memory B: h spill
// buckets with their write pages, and the bytes left for resident states.
// INC-hash budgets its state table in those bytes; DINC-hash turns them
// into `slots()` monitored entries.
struct HashMemoryPlan {
  uint64_t entry_cost = 0;  // bytes per resident (counter, key, state)
  int num_buckets = 0;      // h
  uint64_t page_bytes = 0;  // each bucket's write page
  uint64_t free_bytes = 0;  // B - h pages
  // DINC-hash's monitored slots s = free bytes / entry cost (at least 1).
  uint64_t slots() const {
    return std::max<uint64_t>(1, free_bytes / entry_cost);
  }
};
HashMemoryPlan PlanHashMemory(const JobConfig& cfg,
                              uint64_t state_bytes_hint);

class BucketPassProcessor {
 public:
  // `ctx` must outlive the processor and carry an IncrementalReducer.
  // `capacity_bytes` is the engine's in-memory budget for one pass,
  // charged per distinct key at the same entry cost the engine uses for
  // its resident table.
  BucketPassProcessor(const EngineContext* ctx, uint64_t capacity_bytes);

  // Reduces one bucket: combine per key in memory, finalize every key,
  // recursing into sub-buckets (hash level + 1) on overflow. `owner` seeds
  // the sub-partition manager's corruption keyspace.
  Status Process(KvBuffer data, uint64_t level, int depth, uint64_t owner);

  // Reduces an engine's spill buckets at end of input: flushes their write
  // pages, then processes each non-empty bucket at hash level 2 (the h3
  // the engine routed its spills by).
  Status Drain(BucketFileManager* buckets);

  // Adds the pass table's counters to `m` (call once, when the engine
  // finishes).
  template <typename Metrics>
  void FlushStatsTo(Metrics* m) const {
    table_.FlushStatsTo(m);
  }

 private:
  // Combines and finalizes `data` in the pass table. Returns false,
  // finalizing nothing, if its keys exceed the budget and `force` is off.
  bool ReduceInMemory(const KvBuffer& data, uint64_t level, bool force);
  Status Repartition(KvBuffer data, uint64_t level, int depth,
                     uint64_t owner);

  const EngineContext* ctx_;
  uint64_t capacity_bytes_;
  FlatTable table_;
  std::string scratch_;
  std::vector<uint64_t> digest_scratch_;  // batch-plane digests (§5.8)
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_HASH_BUCKET_PASS_H_
