// Streaming k-way merge over sorted KvBuffers, with group iteration.
//
// Used by the sort-merge engine's spill merges and final merge, the map
// side's external sort and the node combine tier's sorted feeds. Inputs
// must each be sorted by key (byte-lexicographic); the merger yields
// records in global key order, stable by input index for equal keys.

#ifndef ONEPASS_ENGINE_SORTED_MERGE_H_
#define ONEPASS_ENGINE_SORTED_MERGE_H_

#include <cstdint>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "src/mr/api.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class SortedKvMerger {
 public:
  explicit SortedKvMerger(std::vector<const KvBuffer*> inputs);

  // Advances to the next record in key order. Views are valid as long as
  // the underlying buffers live.
  bool Next(std::string_view* key, std::string_view* value);

  // Groups consecutive equal keys: fills `values` with every value of the
  // next key. Returns false at end.
  bool NextGroup(std::string_view* key, std::vector<std::string_view>* values);

  // Drains the merge into *out. With `inc`, each key group collapses to
  // one record, its values folded by CombineValues (a lone value is copied
  // as is); without, every record is copied. Returns the Combine calls.
  uint64_t MergeInto(KvBuffer* out, IncrementalReducer* inc = nullptr);

  uint64_t records_merged() const { return records_merged_; }

 private:
  struct Head {
    std::string_view key;
    std::string_view value;
    size_t input;
  };
  struct Later {
    bool operator()(const Head& a, const Head& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.input > b.input;
    }
  };

  void Advance(size_t input);

  std::vector<KvBufferReader> readers_;
  std::priority_queue<Head, std::vector<Head>, Later> heap_;
  uint64_t records_merged_ = 0;
  bool pending_valid_ = false;
  std::string_view pending_key_;
  std::string_view pending_value_;
};

// Folds a key group's values into one state, in order, with inc->Combine;
// adds the calls made to *combines.
std::string CombineValues(IncrementalReducer* inc, std::string_view key,
                          const std::vector<std::string_view>& values,
                          uint64_t* combines);

}  // namespace onepass

#endif  // ONEPASS_ENGINE_SORTED_MERGE_H_
