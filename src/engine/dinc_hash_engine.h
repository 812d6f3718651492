// DincHashEngine: dynamic incremental hash with frequent-key monitoring
// (§4.3).
//
// When the distinct key-state space far exceeds memory, INC-hash's
// first-come residency wastes memory on cold keys. DINC-hash instead keeps
// the *hot* keys resident using the FREQUENT (Misra–Gries) algorithm:
// s = (B - h pages) / entry monitored slots hold (counter, key, state).
//   - monitored key        -> counter++, combine tuple into state;
//   - unmonitored, a slot's counter is 0
//                          -> evict that slot's state (the workload may
//                             discard it via TryDiscard — e.g. expired
//                             sessions are emitted, not spilled — otherwise
//                             it is written to its hash bucket) and insert
//                             the new key;
//   - unmonitored, all counters > 0
//                          -> decrement every counter, spill the tuple.
// The FREQUENT guarantee transfers: at least sum_i max(0, f_i - M/(s+1))
// combine operations happen in memory, so with skewed data nearly all
// tuples are absorbed before ever touching disk.
//
// At end of input the engine either
//   (a) exact mode (default): flushes resident states into the buckets
//       (unless the workload's Finalize is locally correct and opts out)
//       and processes each bucket in memory, or
//   (b) approximate mode (coverage threshold phi set): finalizes resident
//       states whose coverage lower bound gamma = t/(t + M/(s+1)) reaches
//       phi and skips the disk-resident data entirely (§4.3's early
//       termination).
//
// Each tuple is hashed once with h3; the digest probes the sketch's
// FlatTable index and routes any spill to the bucket h3.Bucket would pick
// (evicted keys reuse the digest retained in their slot).

#ifndef ONEPASS_ENGINE_DINC_HASH_ENGINE_H_
#define ONEPASS_ENGINE_DINC_HASH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/engine/group_by_engine.h"
#include "src/engine/hash_bucket_pass.h"
#include "src/sketch/frequent.h"
#include "src/storage/bucket_manager.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class DincHashEngine : public GroupByEngine {
 public:
  explicit DincHashEngine(const EngineContext& ctx);

  Status Consume(const KvBuffer& segment, bool sorted) override;
  Status Finish() override;
  // Sketch slots (with their Misra–Gries counters and retained digests),
  // the monitored states by slot, and the spill buckets.
  Status SaveState(CheckpointWriter* w) const override;
  Status RestoreState(CheckpointReader* r) override;

  uint64_t monitored_keys() const { return sketch_->size(); }
  // Keys finalized from memory in approximate mode.
  uint64_t covered_keys() const { return covered_keys_; }

 private:
  // Routes a key-state pair to its disk bucket unless the workload
  // discards it via TryDiscard. `digest` must be h3(key).
  void SpillState(std::string_view key, uint64_t digest, std::string* state);

  std::unique_ptr<FrequentSketch> sketch_;
  std::vector<std::string> states_;  // slot id -> state bytes
  std::vector<uint64_t> digest_scratch_;  // batch-plane digests (§5.8)
  uint64_t capacity_entries_ = 0;    // s
  int num_buckets_;                  // h
  std::unique_ptr<BucketFileManager> buckets_;
  std::unique_ptr<BucketPassProcessor> bucket_pass_;
  UniversalHash h3_;
  uint64_t covered_keys_ = 0;
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_DINC_HASH_ENGINE_H_
