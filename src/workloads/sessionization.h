// Sessionization: reorder a click stream into per-user sessions (§2.3).
//
// Map: key = user id, value = click payload [ts][url][padding].
// Reduce: order a user's clicks by timestamp, split sessions at gaps of
// more than 5 minutes, and emit every click tagged with its session id
// (the session's first click timestamp).
//
// Three implementations, one per engine contract:
//  * SessionizationMapper + SessionizationReducer — the values-list API
//    (sort-merge / MR-hash): buffers all clicks of a user, sorts, splits.
//  * SessionizationIncReducer — the incremental API (INC/DINC): the state
//    is a fixed-size buffer of a user's recent clicks (the paper uses a
//    fixed buffer because shuffle order is only approximately temporal;
//    a big enough buffer absorbs the bounded disorder). Closed sessions
//    stream out of OnUpdate as soon as the 5-minute gap is observed —
//    this is what lets the reduce progress track the map progress.
//  * TryDiscard (DINC eviction hook, §6.2): a state whose clicks all
//    belong to expired sessions is emitted directly instead of spilled —
//    the mechanism behind the 0.1 GB vs 203 GB spill difference of
//    Table 4.

#ifndef ONEPASS_WORKLOADS_SESSIONIZATION_H_
#define ONEPASS_WORKLOADS_SESSIONIZATION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/mr/api.h"
#include "src/workloads/clickstream.h"

namespace onepass {

// Intermediate click payload: [ts: fixed64][url: fixed32] + padding.
std::string EncodeClickPayload(uint64_t ts, uint32_t url,
                               size_t payload_bytes);
bool DecodeClickPayload(std::string_view data, uint64_t* ts, uint32_t* url);

// Output record value: [session: fixed64][ts: fixed64][url: fixed32] +
// padding to `payload_bytes` (so reduce output ~= input, K_r ~= 1).
std::string EncodeSessionOutput(uint64_t session, uint64_t ts, uint32_t url,
                                size_t payload_bytes);
bool DecodeSessionOutput(std::string_view data, uint64_t* session,
                         uint64_t* ts, uint32_t* url);

inline constexpr size_t kDefaultClickPayloadBytes = 64;

class SessionizationMapper : public Mapper {
 public:
  explicit SessionizationMapper(
      size_t payload_bytes = kDefaultClickPayloadBytes)
      : payload_bytes_(payload_bytes) {}
  void Map(std::string_view key, std::string_view value,
           Emitter* out) override;

 private:
  size_t payload_bytes_;
  // Reused for every click's payload: each task has its own instance.
  std::string payload_;
};

// Values-list reduce: needs all of a user's clicks before it can emit.
class SessionizationReducer : public Reducer {
 public:
  explicit SessionizationReducer(
      size_t payload_bytes = kDefaultClickPayloadBytes)
      : payload_bytes_(payload_bytes) {}
  void Reduce(std::string_view key, ValueIterator* values,
              Emitter* out) override;

 private:
  size_t payload_bytes_;
  // Reused for every output value: each task has its own instance.
  std::string value_;
};

// Incremental reduce with a fixed-size click buffer as the state.
//
// State layout: [count: fixed32] then `count` entries of
// [ts: fixed64][url: fixed32] + 'x' padding (each entry is payload_bytes,
// so carrying a click through the state costs what the click costs),
// sorted by ts with equal timestamps in arrival order. An empty string
// is a state with no clicks.
//
// Every call works on the state bytes in place, never decoding them into
// a temporary or rebuilding them (DESIGN.md §5.4): Combine inserts each
// click of `other` at its upper-bound position, found by scanning back
// from the end (the usual case is an append); OnUpdate erases the
// emitted prefix; Finalize and TryDiscard emit straight from the bytes.
class SessionizationIncReducer : public IncrementalReducer {
 public:
  // state_bytes: the fixed buffer size (the paper evaluates 0.5/1/2 KB).
  explicit SessionizationIncReducer(
      uint64_t state_bytes = 512,
      size_t payload_bytes = kDefaultClickPayloadBytes);

  std::string Init(std::string_view key, std::string_view value) override;
  void Combine(std::string_view key, std::string* state,
               std::string_view other) override;
  void Finalize(std::string_view key, std::string_view state,
                Emitter* out) override;
  void OnUpdate(std::string_view key, std::string* state,
                Emitter* out) override;
  bool TryDiscard(std::string_view key, std::string* state,
                  Emitter* out) override;
  bool FlushResidentStatesAtEnd() const override { return false; }
  uint64_t StateBytesHint() const override { return state_bytes_; }

  uint64_t watermark() const { return watermark_; }

 private:
  // Emits the first `n` clicks of `state` tagged with their session ids.
  void EmitBuffered(std::string_view key, std::string_view state, size_t n,
                    Emitter* out);

  uint64_t state_bytes_;
  size_t payload_bytes_;
  size_t capacity_clicks_;
  // Highest timestamp seen by this reduce task; used as the expiry
  // watermark for TryDiscard.
  uint64_t watermark_ = 0;
  // Reused for every output value: each task has its own instance.
  std::string value_;
};

}  // namespace onepass

#endif  // ONEPASS_WORKLOADS_SESSIONIZATION_H_
