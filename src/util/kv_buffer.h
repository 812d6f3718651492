// KvBuffer: a flat, append-only buffer of (key, value) byte-string pairs.
//
// This is the platform's unit of intermediate data: map output partitions,
// shuffle segments, spill-file payloads, and disk buckets are all KvBuffers.
// Records are stored contiguously as varint-length-prefixed key/value bytes,
// so `bytes()` is the honest serialized size that the simulated disk and
// network account for.

#ifndef ONEPASS_UTIL_KV_BUFFER_H_
#define ONEPASS_UTIL_KV_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/coding.h"

namespace onepass {

class KvBuffer {
 public:
  KvBuffer() = default;

  // Appends one record. Views into the buffer remain valid until the buffer
  // is destroyed or cleared (std::string may reallocate, so do not hold
  // views across Append calls).
  void Append(std::string_view key, std::string_view value) {
    PutLengthPrefixed(&data_, key);
    PutLengthPrefixed(&data_, value);
    ++count_;
  }

  // Appends one record whose value is the concatenation of `value_parts`,
  // without joining them into one string first.
  void AppendParts(std::string_view key,
                   std::initializer_list<std::string_view> value_parts) {
    PutLengthPrefixed(&data_, key);
    size_t size = 0;
    for (const std::string_view part : value_parts) size += part.size();
    PutVarint32(&data_, static_cast<uint32_t>(size));
    for (const std::string_view part : value_parts) data_.append(part);
    ++count_;
  }

  // Appends `count` whole records already in this layout (a run of
  // another buffer's records).
  void AppendRecords(std::string_view records, uint64_t count) {
    data_.append(records);
    count_ += count;
  }

  // Pre-sizes the backing storage for `bytes` total serialized bytes.
  // Callers that know the final size (e.g. partition assembly from runs of
  // known byte counts) use this to avoid repeated string reallocations.
  void Reserve(size_t bytes) {
    if (bytes > data_.capacity()) data_.reserve(bytes);
  }

  // Releases slack capacity. Worth calling once a buffer reaches its final
  // size and will be held for a while (e.g. merged map output partitions
  // awaiting shuffle), so resident spill memory tracks payload bytes.
  void ShrinkToFit() { data_.shrink_to_fit(); }

  uint64_t count() const { return count_; }
  uint64_t bytes() const { return data_.size(); }
  bool empty() const { return count_ == 0; }

  void Clear() {
    data_.clear();
    count_ = 0;
  }

  const std::string& data() const { return data_; }

  // Reconstructs a buffer from serialized bytes (e.g. read back from a
  // spill file). `count` must match what was serialized.
  static KvBuffer FromData(std::string data, uint64_t count) {
    KvBuffer b;
    b.data_ = std::move(data);
    b.count_ = count;
    return b;
  }

 private:
  std::string data_;
  uint64_t count_ = 0;
};

// Sequential reader over a KvBuffer (or raw serialized record bytes).
// Typical use:
//   KvBufferReader r(buf);
//   std::string_view k, v;
//   while (r.Next(&k, &v)) { ... }
class KvBufferReader {
 public:
  explicit KvBufferReader(const KvBuffer& buf) : rest_(buf.data()) {}
  explicit KvBufferReader(std::string_view raw) : rest_(raw) {}

  // Advances to the next record. Returns false at end, or if the bytes do
  // not parse as length-prefixed records. Readers also run over bytes read
  // back through framed I/O; frame checksums catch flipped bits, but a
  // truncated or mis-framed payload still surfaces here as a short read, so
  // callers that require exactly N records must check AtEnd()/the count.
  bool Next(std::string_view* key, std::string_view* value) {
    if (rest_.empty()) return false;
    if (!GetLengthPrefixed(&rest_, key)) return false;
    return GetLengthPrefixed(&rest_, value);
  }

  bool AtEnd() const { return rest_.empty(); }

  // Bytes not yet consumed.
  size_t remaining_bytes() const { return rest_.size(); }

 private:
  std::string_view rest_;
};

// Records per RecordBatch in the data plane's batched loops (DESIGN.md
// §5.8): the ~48 KB codec block over a nominal 64-byte record. Batch size
// only changes wall-clock, never what a consumer sees, so it is a constant
// rather than a knob.
inline constexpr size_t kBatchRecords = 768;

// Batch-at-a-time reader: decodes up to `capacity` records per Fill() into
// parallel key/value view arrays (the RecordBatch layout, DESIGN.md §5.8).
// Views point into the underlying buffer and stay valid for its lifetime,
// so a whole batch can be hashed, prefetched, and probed without copying.
// Record order is exactly KvBufferReader order — batch size only changes
// how many views are staged at once, never what a consumer sees.
class KvBatchReader {
 public:
  KvBatchReader(const KvBuffer& buf, size_t capacity)
      : reader_(buf), keys_(capacity), values_(capacity) {}
  KvBatchReader(std::string_view raw, size_t capacity)
      : reader_(raw), keys_(capacity), values_(capacity) {}

  // Decodes the next batch; returns the record count (0 at end of input).
  size_t Fill() {
    size_t n = 0;
    while (n < keys_.size() && reader_.Next(&keys_[n], &values_[n])) ++n;
    return n;
  }

  const std::string_view* keys() const { return keys_.data(); }
  const std::string_view* values() const { return values_.data(); }
  size_t capacity() const { return keys_.size(); }

 private:
  KvBufferReader reader_;
  std::vector<std::string_view> keys_;
  std::vector<std::string_view> values_;
};

// Serialized size of one record as KvBuffer stores it.
inline uint64_t RecordBytes(std::string_view key, std::string_view value) {
  return static_cast<uint64_t>(VarintLength(key.size()) + key.size() +
                               VarintLength(value.size()) + value.size());
}

}  // namespace onepass

#endif  // ONEPASS_UTIL_KV_BUFFER_H_
