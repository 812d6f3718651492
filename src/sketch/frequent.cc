#include "src/sketch/frequent.h"

#include <algorithm>

#include "src/common/logging.h"

namespace onepass {

namespace {
// Dead index bytes tolerated before a compaction (keeps tiny sketches from
// rebuilding constantly).
constexpr uint64_t kCompactMinDeadBytes = 64 * 1024;
}  // namespace

FrequentSketch::FrequentSketch(size_t capacity) {
  CHECK_GE(capacity, 1u);
  slots_.resize(capacity);
  index_.Reserve(capacity);
  heap_.reserve(capacity);
  heap_pos_.assign(capacity, kNoPos);
  free_slots_.reserve(capacity);
  for (int i = static_cast<int>(capacity) - 1; i >= 0; --i) {
    free_slots_.push_back(i);
  }
}

void FrequentSketch::PushNode(HeapNode node) {
  heap_.push_back(node);
  SiftUp(static_cast<int>(heap_.size()) - 1);
}

void FrequentSketch::RemoveNode(int pos) {
  heap_pos_[heap_[pos].slot] = kNoPos;
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (pos == static_cast<int>(heap_.size())) return;
  heap_[pos] = last;
  heap_pos_[last.slot] = pos;
  Resift(pos);
}

void FrequentSketch::SiftUp(int pos) {
  const HeapNode node = heap_[pos];
  while (pos > 0) {
    const int parent = (pos - 1) / 2;
    if (!Colder(node, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos].slot] = pos;
    pos = parent;
  }
  heap_[pos] = node;
  heap_pos_[node.slot] = pos;
}

void FrequentSketch::SiftDown(int pos) {
  const HeapNode node = heap_[pos];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Colder(heap_[child + 1], heap_[child])) ++child;
    if (!Colder(heap_[child], node)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos].slot] = pos;
    pos = child;
  }
  heap_[pos] = node;
  heap_pos_[node.slot] = pos;
}

void FrequentSketch::Resift(int pos) {
  if (pos > 0 && Colder(heap_[pos], heap_[(pos - 1) / 2])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void FrequentSketch::IndexInsert(std::string_view key, uint64_t hash,
                                 int slot) {
  bool inserted = false;
  const uint32_t idx = index_.FindOrInsert(key, hash, &inserted);
  index_.set_pod(idx, slot);
  live_key_bytes_ += key.size();
}

void FrequentSketch::IndexErase(std::string_view key, uint64_t hash) {
  index_.Erase(key, hash);
  live_key_bytes_ -= key.size();
  dead_key_bytes_ += key.size();
}

void FrequentSketch::MaybeCompactIndex() {
  if (dead_key_bytes_ < kCompactMinDeadBytes ||
      dead_key_bytes_ < live_key_bytes_) {
    return;
  }
  index_.Clear();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!SlotOccupied(static_cast<int>(i))) continue;
    const Slot& s = slots_[i];
    bool inserted = false;
    const uint32_t idx = index_.FindOrInsert(s.key, s.hash, &inserted);
    index_.set_pod(idx, static_cast<int>(i));
  }
  dead_key_bytes_ = 0;
}

void FrequentSketch::Hit(int slot) {
  ++offers_;
  const int pos = heap_pos_[slot];
  CHECK_NE(pos, kNoPos);
  ++slots_[slot].t;
  ++heap_[pos].raw;
  SiftDown(pos);
}

int FrequentSketch::InsertIntoFree(std::string_view key, uint64_t hash) {
  CHECK(!free_slots_.empty());
  ++offers_;
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[slot];
  s.key.assign(key.data(), key.size());
  s.hash = hash;
  s.t = 1;
  IndexInsert(s.key, hash, slot);
  PushNode({delta_ + 1, slot});
  return slot;
}

int FrequentSketch::MinSlot() const {
  return heap_.empty() ? -1 : heap_[0].slot;
}

uint64_t FrequentSketch::MinCount() const {
  CHECK(!heap_.empty());
  return heap_[0].raw - delta_;
}

void FrequentSketch::ReplaceSlot(int slot, std::string_view key,
                                 uint64_t hash) {
  ++offers_;
  const int pos = heap_pos_[slot];
  CHECK_NE(pos, kNoPos);
  Slot& s = slots_[slot];
  // The key is overwritten in place, reusing the slot string's capacity.
  IndexErase(s.key, s.hash);
  s.key.assign(key.data(), key.size());
  s.hash = hash;
  s.t = 1;
  IndexInsert(s.key, hash, slot);
  heap_[pos].raw = delta_ + 1;
  Resift(pos);
  MaybeCompactIndex();
}

void FrequentSketch::DecrementAll() {
  ++offers_;
  // Legal only when every effective count is positive.
  CHECK(heap_.empty() || MinCount() > 0);
  ++delta_;
}

int FrequentSketch::ColdestSlots(int n, int* out) const {
  CHECK_LE(n, kMaxColdestSlots);
  // Best-first walk: `frontier` holds the heap positions whose parents
  // have been emitted; its coldest node is the next coldest slot overall.
  // Each emission swaps one node for at most its two children, so the
  // frontier never holds more than n + 1 nodes.
  int frontier[kMaxColdestSlots + 1];
  int frontier_size = heap_.empty() ? 0 : 1;
  frontier[0] = 0;
  const int size = static_cast<int>(heap_.size());
  int written = 0;
  while (written < n && frontier_size > 0) {
    int best = 0;
    for (int i = 1; i < frontier_size; ++i) {
      if (Colder(heap_[frontier[i]], heap_[frontier[best]])) best = i;
    }
    const int pos = frontier[best];
    out[written++] = heap_[pos].slot;
    frontier[best] = frontier[--frontier_size];
    const int child = 2 * pos + 1;
    if (child < size) frontier[frontier_size++] = child;
    if (child + 1 < size) frontier[frontier_size++] = child + 1;
  }
  return written;
}

FrequentSketch::OfferResult FrequentSketch::Offer(std::string_view key,
                                                  uint64_t hash) {
  OfferResult result;
  const int found = Find(key, hash);
  if (found >= 0) {
    Hit(found);
    result.action = Action::kUpdated;
    result.slot = found;
    return result;
  }
  if (HasFreeSlot()) {
    result.action = Action::kInserted;
    result.slot = InsertIntoFree(key, hash);
    return result;
  }
  const int min_slot = MinSlot();
  if (MinCount() == 0) {
    result.action = Action::kEvicted;
    result.slot = min_slot;
    result.evicted_key.assign(Key(min_slot));
    ReplaceSlot(min_slot, key, hash);
    return result;
  }
  DecrementAll();
  result.action = Action::kRejected;
  return result;
}

int FrequentSketch::Find(std::string_view key, uint64_t hash) const {
  const uint32_t idx = index_.Find(key, hash);
  return idx == FlatTable::kNoEntry ? -1 : index_.pod_at<int>(idx);
}

uint64_t FrequentSketch::Count(int slot) const {
  CHECK(SlotOccupied(slot));
  return Raw(slot) - delta_;
}

double FrequentSketch::CoverageLowerBound(int slot) const {
  const double t = static_cast<double>(slots_[slot].t);
  const double m_over_s1 =
      static_cast<double>(offers_) / static_cast<double>(capacity() + 1);
  if (t == 0.0) return 0.0;
  return t / (t + m_over_s1);
}

void FrequentSketch::Release(int slot) {
  const int pos = heap_pos_[slot];
  CHECK_NE(pos, kNoPos);
  Slot& s = slots_[slot];
  RemoveNode(pos);
  IndexErase(s.key, s.hash);
  s.key.clear();
  s.hash = 0;
  s.t = 0;
  free_slots_.push_back(slot);
  MaybeCompactIndex();
}

uint64_t FrequentSketch::EstimateCount(std::string_view key) const {
  const int slot = Find(key);
  if (slot < 0) return 0;
  return Raw(slot) - delta_;
}

void FrequentSketch::SaveTo(CheckpointWriter* w) const {
  w->PutU64("mg.capacity", slots_.size());
  w->PutU64("mg.delta", delta_);
  w->PutU64("mg.offers", offers_);
  w->PutU64("mg.free", free_slots_.size());
  FieldName free_name("mg.free.");
  for (size_t i = 0; i < free_slots_.size(); ++i) {
    w->PutU64(free_name(i), static_cast<uint64_t>(free_slots_[i]));
  }
  FieldName occ("mg.occ."), key("mg.key."), hash("mg.hash."), raw("mg.raw."),
      t("mg.t.");
  for (size_t i = 0; i < slots_.size(); ++i) {
    const int slot = static_cast<int>(i);
    const Slot& s = slots_[i];
    w->PutU64(occ(i), SlotOccupied(slot) ? 1 : 0);
    if (!SlotOccupied(slot)) continue;
    w->PutBytes(key(i), s.key);
    w->PutU64(hash(i), s.hash);
    w->PutU64(raw(i), Raw(slot));
    w->PutU64(t(i), s.t);
  }
}

Status FrequentSketch::RestoreFrom(CheckpointReader* r) {
  uint64_t capacity = 0;
  RETURN_IF_ERROR(r->GetU64("mg.capacity", &capacity));
  if (capacity != slots_.size()) {
    return Status::Corruption(
        "checkpointed sketch capacity does not match this config");
  }
  RETURN_IF_ERROR(r->GetU64("mg.delta", &delta_));
  RETURN_IF_ERROR(r->GetU64("mg.offers", &offers_));
  uint64_t free_count = 0;
  RETURN_IF_ERROR(r->GetU64("mg.free", &free_count));
  if (free_count > slots_.size()) {
    return Status::Corruption("checkpointed sketch free list oversized");
  }
  // The index and the count heap are derived views; rebuild them from the
  // slots (compaction state resets — dead bytes do not survive a restore,
  // which only affects when the next rebuild fires). The heap position map
  // needs each slot to be exactly one of free or occupied, so a stream
  // that breaks that is rejected here rather than trusted.
  std::vector<bool> listed_free(slots_.size(), false);
  index_.Clear();
  heap_.clear();
  std::fill(heap_pos_.begin(), heap_pos_.end(), kNoPos);
  live_key_bytes_ = 0;
  dead_key_bytes_ = 0;
  free_slots_.clear();
  for (uint64_t i = 0; i < free_count; ++i) {
    uint64_t slot = 0;
    RETURN_IF_ERROR(r->GetU64("mg.free." + std::to_string(i), &slot));
    if (slot >= slots_.size()) {
      return Status::Corruption("checkpointed sketch free slot out of range");
    }
    if (listed_free[slot]) {
      return Status::Corruption("checkpointed sketch free slot listed twice");
    }
    listed_free[slot] = true;
    free_slots_.push_back(static_cast<int>(slot));
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    const std::string tag = std::to_string(i);
    uint64_t occ = 0;
    RETURN_IF_ERROR(r->GetU64("mg.occ." + tag, &occ));
    if (occ == 0) {
      s.key.clear();
      s.hash = 0;
      s.t = 0;
      continue;
    }
    if (listed_free[i]) {
      return Status::Corruption(
          "checkpointed sketch slot is both free and occupied");
    }
    std::string_view key;
    RETURN_IF_ERROR(r->GetBytes("mg.key." + tag, &key));
    s.key.assign(key);
    RETURN_IF_ERROR(r->GetU64("mg.hash." + tag, &s.hash));
    uint64_t raw = 0;
    RETURN_IF_ERROR(r->GetU64("mg.raw." + tag, &raw));
    if (raw < delta_) {
      return Status::Corruption(
          "checkpointed sketch counter below the decrement offset");
    }
    RETURN_IF_ERROR(r->GetU64("mg.t." + tag, &s.t));
    IndexInsert(s.key, s.hash, static_cast<int>(i));
    PushNode({raw, static_cast<int>(i)});
  }
  if (free_slots_.size() + heap_.size() != slots_.size()) {
    return Status::Corruption(
        "checkpointed sketch slots are neither free nor occupied");
  }
  return Status::OK();
}

}  // namespace onepass
