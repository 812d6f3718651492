#include "src/engine/sorted_merge.h"

namespace onepass {

SortedKvMerger::SortedKvMerger(std::vector<const KvBuffer*> inputs) {
  readers_.reserve(inputs.size());
  for (const KvBuffer* in : inputs) {
    readers_.emplace_back(*in);
  }
  for (size_t i = 0; i < readers_.size(); ++i) Advance(i);
}

void SortedKvMerger::Advance(size_t input) {
  std::string_view k, v;
  if (readers_[input].Next(&k, &v)) {
    heap_.push(Head{k, v, input});
  }
}

bool SortedKvMerger::Next(std::string_view* key, std::string_view* value) {
  if (pending_valid_) {
    *key = pending_key_;
    *value = pending_value_;
    pending_valid_ = false;
    ++records_merged_;
    return true;
  }
  if (heap_.empty()) return false;
  const Head top = heap_.top();
  heap_.pop();
  Advance(top.input);
  *key = top.key;
  *value = top.value;
  ++records_merged_;
  return true;
}

bool SortedKvMerger::NextGroup(std::string_view* key,
                               std::vector<std::string_view>* values) {
  values->clear();
  std::string_view k, v;
  if (!Next(&k, &v)) return false;
  *key = k;
  values->push_back(v);
  while (Next(&k, &v)) {
    if (k != *key) {
      // Push back for the next group.
      pending_valid_ = true;
      pending_key_ = k;
      pending_value_ = v;
      --records_merged_;
      break;
    }
    values->push_back(v);
  }
  return true;
}

uint64_t SortedKvMerger::MergeInto(KvBuffer* out, IncrementalReducer* inc) {
  if (inc == nullptr) {
    std::string_view key, value;
    while (Next(&key, &value)) out->Append(key, value);
    return 0;
  }
  uint64_t combines = 0;
  std::string_view key;
  std::vector<std::string_view> values;
  while (NextGroup(&key, &values)) {
    if (values.size() == 1) {
      out->Append(key, values[0]);
    } else {
      out->Append(key, CombineValues(inc, key, values, &combines));
    }
  }
  return combines;
}

std::string CombineValues(IncrementalReducer* inc, std::string_view key,
                          const std::vector<std::string_view>& values,
                          uint64_t* combines) {
  std::string state(values[0]);
  for (size_t i = 1; i < values.size(); ++i) {
    inc->Combine(key, &state, values[i]);
    ++*combines;
  }
  return state;
}

}  // namespace onepass
