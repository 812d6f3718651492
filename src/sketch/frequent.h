// FREQUENT (Misra–Gries) sketch with slot payload support.
//
// DINC-hash (§4.3 of the paper) monitors "hot" keys with the FREQUENT
// algorithm [Misra & Gries 82; Berinde et al. 09]: s slots hold
// (counter c[i], key k[i]) plus the state s[i] of the partial reduce
// computation. On an arriving tuple:
//   - key monitored            -> increment c, combine into state;
//   - not monitored, some c==0 -> evict that slot, insert key with c=1;
//   - not monitored, all c>0   -> decrement every counter, spill the tuple.
//
// The classic guarantee: a key with true frequency f is combined in memory
// at least max(0, f - M/(s+1)) times, where M is the number of offers.
//
// Decrement-all is O(1) via a global offset: effective count = raw count -
// delta_, and "decrement all" is delta_ += 1 (legal exactly when no
// effective count is 0).
//
// The count index is an indexed binary min-heap over (raw count, slot id):
// two arrays sized at construction, the heap nodes and a slot -> heap
// position map. Hit, insert, replace and release are O(log s) sift
// operations that never allocate; MinSlot/MinCount read the root. The
// order is strictly lexicographic on (raw, slot) — equal counts go to the
// lower slot id — and that tie rule is part of the contract, not an
// implementation detail: it decides which zero-count slot DINC evicts and
// which slots its expiry sweep offers to TryDiscard, and so which keys
// spill (a FIFO tie rule would change spill bytes and the goldens).
// ColdestSlots(n) reads the n coldest slots by a best-first walk from the
// root: the n smallest nodes of a binary heap lie within its first n
// levels (the first 2^n - 1 nodes), so the walk touches O(n) nodes.
// Together with in-place key replacement, the miss path (Find,
// ColdestSlots, MinCount, ReplaceSlot or DecrementAll) makes no per-miss
// allocation; only the key index's arena takes a block now and then.
//
// The sketch tracks per-slot `t` counters — tuples combined since the key
// was last inserted — which DINC uses for coverage estimation:
//   gamma = t / (t + M/(s+1))  <=  t / f  =  coverage   (a safe
// under-estimate; see §4.3 "Approximate Answers and Coverage Estimation").
//
// Slot payloads (reduce states) live with the *caller*, indexed by the slot
// id this class reports, so the sketch itself stays byte-agnostic.
//
// The key → slot index is a FlatTable (DESIGN.md §5.4). Every keyed
// primitive has a digest overload so DINC can hash each tuple once and
// share the digest between the monitor probe and the spill-bucket route
// (the per-slot digest is retained — SlotHash — so evicted keys route
// without rehashing). The convenience single-argument forms hash with
// FlatTable::DefaultHash; one sketch instance must stick to one hash
// function.

#ifndef ONEPASS_SKETCH_FREQUENT_H_
#define ONEPASS_SKETCH_FREQUENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/checkpoint.h"
#include "src/util/flat_table.h"

namespace onepass {

class FrequentSketch {
 public:
  enum class Action {
    kUpdated,   // key already monitored; counter incremented
    kInserted,  // key inserted into a free slot
    kEvicted,   // a zero-count slot was evicted and the key inserted there
    kRejected,  // all counters > 0; every counter decremented; caller spills
  };

  struct OfferResult {
    Action action = Action::kRejected;
    // Slot holding the key after the offer (kUpdated/kInserted/kEvicted);
    // -1 for kRejected.
    int slot = -1;
    // For kEvicted: the key that was displaced (caller owns its payload).
    std::string evicted_key;
  };

  // capacity: s, the number of monitored slots (>= 1).
  explicit FrequentSketch(size_t capacity);

  // Feeds one occurrence of `key` to the sketch. Composition of the
  // primitives below with the classic FREQUENT policy.
  OfferResult Offer(std::string_view key) {
    return Offer(key, FlatTable::DefaultHash(key));
  }
  OfferResult Offer(std::string_view key, uint64_t hash);

  // --- primitives (each counts as one offer where noted) ---
  // DINC-hash composes these directly so it can interleave its proactive
  // eviction hook (discard expired states) with the FREQUENT policy.

  // Increments a monitored slot's counter (one offer).
  void Hit(int slot);
  // Inserts `key` into a free slot; requires HasFreeSlot() (one offer).
  int InsertIntoFree(std::string_view key) {
    return InsertIntoFree(key, FlatTable::DefaultHash(key));
  }
  int InsertIntoFree(std::string_view key, uint64_t hash);
  bool HasFreeSlot() const { return !free_slots_.empty(); }
  // The occupied slot with the minimum effective count (-1 if none).
  int MinSlot() const;
  // Effective count of MinSlot(); requires an occupied slot.
  uint64_t MinCount() const;
  // Replaces `slot`'s key with `key`, resetting its counter to 1 and its
  // coverage counter (one offer). The displaced key is gone afterwards:
  // read Key(slot) and SlotHash(slot) first to route its payload.
  void ReplaceSlot(int slot, std::string_view key) {
    ReplaceSlot(slot, key, FlatTable::DefaultHash(key));
  }
  void ReplaceSlot(int slot, std::string_view key, uint64_t hash);
  // Decrements every counter by one; legal only when MinCount() > 0
  // (one offer — the rejected tuple).
  void DecrementAll();
  // Writes up to `n` (<= kMaxColdestSlots) occupied slots to `out` in
  // ascending (effective count, slot id) order; returns how many it wrote.
  static constexpr int kMaxColdestSlots = 8;
  int ColdestSlots(int n, int* out) const;

  // Looks up the slot of `key`, or -1 if not monitored.
  int Find(std::string_view key) const {
    return Find(key, FlatTable::DefaultHash(key));
  }
  int Find(std::string_view key, uint64_t hash) const;

  // Warms the monitor index's control word for an upcoming Find (the batch
  // plane issues this kProbePrefetchDistance tuples ahead; DESIGN.md §5.8).
  void PrefetchProbe(uint64_t hash) const { index_.PrefetchProbe(hash); }
  void PrefetchEntry(uint64_t hash) const { index_.PrefetchEntry(hash); }
  void PrefetchKey(uint64_t hash) const { index_.PrefetchKey(hash); }

  // Effective (Misra–Gries) counter of a slot. An upper bound on the true
  // frequency error is offers()/(capacity()+1).
  uint64_t Count(int slot) const;

  // Tuples combined for the slot's key since its last insertion.
  uint64_t CoverageCount(int slot) const { return slots_[slot].t; }

  // The paper's safe coverage under-estimate gamma for a slot:
  //   t / (t + M/(s+1)).
  double CoverageLowerBound(int slot) const;

  // Key stored at a slot ("" if the slot was never used).
  std::string_view Key(int slot) const { return slots_[slot].key; }

  // Digest the slot's key was inserted with. Capture it *before*
  // ReplaceSlot when routing the displaced key's payload.
  uint64_t SlotHash(int slot) const { return slots_[slot].hash; }

  bool SlotOccupied(int slot) const { return heap_pos_[slot] != kNoPos; }

  // Removes `slot`'s key from the sketch, leaving the slot free with an
  // effective count of zero. Used by DINC eviction hooks (e.g. expired
  // sessions are emitted and dropped rather than spilled).
  void Release(int slot);

  size_t capacity() const { return slots_.size(); }
  size_t size() const { return index_.size(); }
  // Total number of offers so far (the paper's M).
  uint64_t offers() const { return offers_; }
  // Number of decrement-all events.
  uint64_t decrements() const { return delta_; }

  // Frequency estimate for any key: the effective counter if monitored,
  // else 0. True frequency f satisfies est <= f <= est + offers()/(s+1).
  uint64_t EstimateCount(std::string_view key) const;

  // Checkpointing (DESIGN.md §5.6): serializes the slots, the decrement
  // offset, the offer count, and the free-slot stack (its LIFO order
  // decides future insertions, so it is state, not scratch). The key→slot
  // index and the count heap are derivable and rebuilt on restore.
  void SaveTo(CheckpointWriter* w) const;
  // Restores into a sketch constructed with the same capacity. Returns
  // Corruption when the stream breaks the slot invariants the heap relies
  // on: every free slot below capacity and listed once, no slot both free
  // and occupied, free + occupied == capacity, and raw >= the offset.
  Status RestoreFrom(CheckpointReader* r);

  // Adds the index table's probe/rehash/arena counters to `m` (see
  // FlatTable::FlushStatsTo).
  template <typename Metrics>
  void FlushIndexStatsTo(Metrics* m) const {
    index_.FlushStatsTo(m);
  }

 private:
  struct Slot {
    std::string key;
    uint64_t hash = 0;  // digest the key was inserted with
    uint64_t t = 0;     // combines since last insertion
  };

  // One occupied slot in the count heap; effective count = raw - delta_.
  struct HeapNode {
    uint64_t raw;
    int slot;
  };
  static constexpr int kNoPos = -1;  // heap_pos_ of a free slot

  // The heap order: lexicographic on (raw, slot).
  static bool Colder(const HeapNode& a, const HeapNode& b) {
    return a.raw < b.raw || (a.raw == b.raw && a.slot < b.slot);
  }
  uint64_t Raw(int slot) const { return heap_[heap_pos_[slot]].raw; }
  // Heap maintenance. Each moves nodes and keeps heap_pos_ in step.
  void PushNode(HeapNode node);
  void RemoveNode(int pos);
  void SiftUp(int pos);
  void SiftDown(int pos);
  void Resift(int pos);  // after the node at `pos` changed either way

  void IndexInsert(std::string_view key, uint64_t hash, int slot);
  void IndexErase(std::string_view key, uint64_t hash);
  // Erased keys leave dead bytes in the index arena; rebuild the index
  // from the slots once they dominate the live bytes.
  void MaybeCompactIndex();

  std::vector<Slot> slots_;
  FlatTable index_;  // key -> slot id
  uint64_t live_key_bytes_ = 0;
  uint64_t dead_key_bytes_ = 0;
  // Min-heap of the occupied slots (heap_[0] is the coldest) and each
  // slot's position in it (kNoPos when free). Both are reserved to the
  // capacity up front.
  std::vector<HeapNode> heap_;
  std::vector<int> heap_pos_;
  std::vector<int> free_slots_;
  uint64_t delta_ = 0;
  uint64_t offers_ = 0;
};

}  // namespace onepass

#endif  // ONEPASS_SKETCH_FREQUENT_H_
