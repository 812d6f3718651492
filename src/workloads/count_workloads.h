// Counting workloads: user click counting, frequent-user identification,
// page (url) frequency, and trigram counting (§2.3, §6).
//
// All four share the count machinery:
//   map value / state: [count: fixed64][flags: u8]  (flag bit 0 = "already
//   emitted early", used by threshold queries so early and final output
//   never duplicate).
//
// Mappers always emit count-states (a count of 1), so the value
// representation is identical across engines; the incremental reducer's
// Init is then the identity, and the values-list reducer simply sums
// counts — both handle raw and map-combined input uniformly.
//
// Threshold semantics:
//   threshold == 0 -> emit (key, count) for every key at finalize (user
//                     click counting, page frequency: no early output).
//   threshold > 0  -> emit the key once its count reaches the threshold;
//                     OnUpdate fires this *early*, during the stream
//                     (frequent users >= 50; trigrams > 1000) — the reason
//                     INC-hash's reduce progress fully tracks the maps in
//                     Fig. 7(c).

#ifndef ONEPASS_WORKLOADS_COUNT_WORKLOADS_H_
#define ONEPASS_WORKLOADS_COUNT_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/mr/api.h"

namespace onepass {

std::string EncodeCountState(uint64_t count, bool emitted);
bool DecodeCountState(std::string_view data, uint64_t* count, bool* emitted);

// Extracts the grouping key from a click record.
enum class ClickKeyField : uint8_t { kUser, kUrl };

// Map for click counting / page frequency: key = user or url, value =
// count-state(1).
class ClickCountMapper : public Mapper {
 public:
  explicit ClickCountMapper(ClickKeyField field) : field_(field) {}
  void Map(std::string_view key, std::string_view value,
           Emitter* out) override;

 private:
  ClickKeyField field_;
};

// Map for trigram counting: splits a whitespace-separated document line
// into words and emits every 3-word window as a key.
class TrigramMapper : public Mapper {
 public:
  void Map(std::string_view key, std::string_view value,
           Emitter* out) override;
};

// Map for word counting: splits a whitespace-separated document line into
// words and emits each one as a key.
class WordMapper : public Mapper {
 public:
  void Map(std::string_view key, std::string_view value,
           Emitter* out) override;
};

// init/cb/fn counting reducer with optional threshold early output.
class CountingIncReducer : public IncrementalReducer {
 public:
  explicit CountingIncReducer(uint64_t threshold = 0)
      : threshold_(threshold) {}

  std::string Init(std::string_view key, std::string_view value) override;
  void Combine(std::string_view key, std::string* state,
               std::string_view other) override;
  void Finalize(std::string_view key, std::string_view state,
                Emitter* out) override;
  void OnUpdate(std::string_view key, std::string* state,
                Emitter* out) override;
  // Counts are algebraic: a monitored key's resident count must merge with
  // its spilled fragments, so DINC flushes states into the buckets.
  bool FlushResidentStatesAtEnd() const override { return true; }
  uint64_t StateBytesHint() const override { return 16; }

 private:
  uint64_t threshold_;
};

// Values-list counting reducer (sort-merge / MR-hash): sums count-states.
class CountingListReducer : public Reducer {
 public:
  explicit CountingListReducer(uint64_t threshold = 0)
      : threshold_(threshold) {}
  void Reduce(std::string_view key, ValueIterator* values,
              Emitter* out) override;

 private:
  uint64_t threshold_;
};

}  // namespace onepass

#endif  // ONEPASS_WORKLOADS_COUNT_WORKLOADS_H_
