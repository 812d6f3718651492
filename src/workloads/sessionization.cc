#include "src/workloads/sessionization.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/util/coding.h"

namespace onepass {

namespace {

struct Entry {
  uint64_t ts;
  uint32_t url;
};

// State accessors. Layout: [count: fixed32][count * entry], entry =
// [ts: fixed64][url: fixed32][padding to payload_bytes].
uint32_t StateCount(std::string_view state) {
  return state.size() >= 4 ? DecodeFixed32(state.data()) : 0;
}

uint64_t StateTs(std::string_view state, size_t payload_bytes, size_t i) {
  return DecodeFixed64(state.data() + 4 + i * payload_bytes);
}

Entry StateEntry(std::string_view state, size_t payload_bytes, size_t i) {
  const char* p = state.data() + 4 + i * payload_bytes;
  return Entry{DecodeFixed64(p), DecodeFixed32(p + 8)};
}

void SetStateCount(std::string* state, uint32_t count) {
  std::memcpy(state->data(), &count, 4);
}

// Overwrites the 12 data bytes of the entry at `p`; its padding stays.
void WriteEntry(char* p, const Entry& e) {
  std::memcpy(p, &e.ts, 8);
  std::memcpy(p + 8, &e.url, 4);
}

// The encoders behind EncodeClickPayload/EncodeSessionOutput. They
// overwrite *dst, so a caller that reuses one string encodes without
// allocating once its capacity has grown to payload_bytes.
void EncodeClickPayloadTo(uint64_t ts, uint32_t url, size_t payload_bytes,
                          std::string* dst) {
  dst->clear();
  PutFixed64(dst, ts);
  PutFixed32(dst, url);
  if (dst->size() < payload_bytes) dst->resize(payload_bytes, 'x');
}

void EncodeSessionOutputTo(uint64_t session, uint64_t ts, uint32_t url,
                           size_t payload_bytes, std::string* dst) {
  dst->clear();
  PutFixed64(dst, session);
  PutFixed64(dst, ts);
  PutFixed32(dst, url);
  if (dst->size() < payload_bytes) dst->resize(payload_bytes, 'x');
}

// Emits entries [0, n) of a ts-sorted run as sessions split at >5 min
// gaps: each click is tagged with the ts of its session's first click
// (the run's first click opens a session). `entry(i)` returns entry i;
// each value is encoded into *buf.
template <typename EntryFn>
void EmitSessions(std::string_view key, size_t n, const EntryFn& entry,
                  size_t payload_bytes, std::string* buf, Emitter* out) {
  if (n == 0) return;
  uint64_t session = entry(0).ts;
  uint64_t prev = session;
  for (size_t i = 0; i < n; ++i) {
    const Entry e = entry(i);
    if (e.ts > prev + kSessionGapSeconds) session = e.ts;
    EncodeSessionOutputTo(session, e.ts, e.url, payload_bytes, buf);
    out->Emit(key, *buf);
    prev = e.ts;
  }
}

}  // namespace

std::string EncodeClickPayload(uint64_t ts, uint32_t url,
                               size_t payload_bytes) {
  std::string out;
  out.reserve(payload_bytes);
  EncodeClickPayloadTo(ts, url, payload_bytes, &out);
  return out;
}

bool DecodeClickPayload(std::string_view data, uint64_t* ts, uint32_t* url) {
  if (data.size() < 12) return false;
  *ts = DecodeFixed64(data.data());
  *url = DecodeFixed32(data.data() + 8);
  return true;
}

std::string EncodeSessionOutput(uint64_t session, uint64_t ts, uint32_t url,
                                size_t payload_bytes) {
  std::string out;
  out.reserve(payload_bytes);
  EncodeSessionOutputTo(session, ts, url, payload_bytes, &out);
  return out;
}

bool DecodeSessionOutput(std::string_view data, uint64_t* session,
                         uint64_t* ts, uint32_t* url) {
  if (data.size() < 20) return false;
  *session = DecodeFixed64(data.data());
  *ts = DecodeFixed64(data.data() + 8);
  *url = DecodeFixed32(data.data() + 16);
  return true;
}

void SessionizationMapper::Map(std::string_view /*key*/,
                               std::string_view value, Emitter* out) {
  Click c;
  if (!DecodeClick(value, &c)) return;
  EncodeClickPayloadTo(c.ts, c.url, payload_bytes_, &payload_);
  out->Emit(UserKey(c.user), payload_);
}

void SessionizationReducer::Reduce(std::string_view key,
                                   ValueIterator* values, Emitter* out) {
  std::vector<Entry> entries;
  std::string_view v;
  while (values->Next(&v)) {
    Entry e;
    if (DecodeClickPayload(v, &e.ts, &e.url)) entries.push_back(e);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });
  EmitSessions(
      key, entries.size(), [&](size_t i) { return entries[i]; },
      payload_bytes_, &value_, out);
}

SessionizationIncReducer::SessionizationIncReducer(uint64_t state_bytes,
                                                   size_t payload_bytes)
    : state_bytes_(state_bytes), payload_bytes_(payload_bytes) {
  CHECK_GE(payload_bytes, 12u);
  capacity_clicks_ =
      std::max<size_t>(2, (state_bytes - 4) / payload_bytes);
}

std::string SessionizationIncReducer::Init(std::string_view /*key*/,
                                           std::string_view value) {
  Entry e{0, 0};
  CHECK(DecodeClickPayload(value, &e.ts, &e.url));
  watermark_ = std::max(watermark_, e.ts);
  std::string state(4 + payload_bytes_, 'x');
  SetStateCount(&state, 1);
  WriteEntry(state.data() + 4, e);
  return state;
}

void SessionizationIncReducer::Combine(std::string_view /*key*/,
                                       std::string* state,
                                       std::string_view other) {
  // Merge the (usually single-click) other state into ours in place,
  // keeping the buffer ts-sorted: each click goes after every buffered
  // click with ts <= its own (upper bound), so equal timestamps keep
  // arrival order. Shuffle order is approximately temporal, so the scan
  // back from the end usually stops at once and the insert is an append.
  if (state->size() < 4) state->assign(4, '\0');
  uint32_t count = StateCount(*state);
  const uint32_t theirs = StateCount(other);
  for (uint32_t j = 0; j < theirs; ++j) {
    const Entry e = StateEntry(other, payload_bytes_, j);
    watermark_ = std::max(watermark_, e.ts);
    size_t pos = count;
    while (pos > 0 && StateTs(*state, payload_bytes_, pos - 1) > e.ts) --pos;
    const size_t offset = 4 + pos * payload_bytes_;
    state->insert(offset, payload_bytes_, 'x');
    WriteEntry(state->data() + offset, e);
    ++count;
  }
  SetStateCount(state, count);
}

void SessionizationIncReducer::EmitBuffered(std::string_view key,
                                            std::string_view state, size_t n,
                                            Emitter* out) {
  EmitSessions(
      key, n, [&](size_t i) { return StateEntry(state, payload_bytes_, i); },
      payload_bytes_, &value_, out);
}

void SessionizationIncReducer::OnUpdate(std::string_view key,
                                        std::string* state, Emitter* out) {
  const size_t n = StateCount(*state);
  if (n == 0) return;
  // The trailing open session starts at the last index i with
  // ts[i] > ts[i-1] + gap (index 0 if there is none).
  size_t open_start = n - 1;
  while (open_start > 0 &&
         StateTs(*state, payload_bytes_, open_start) <=
             StateTs(*state, payload_bytes_, open_start - 1) +
                 kSessionGapSeconds) {
    --open_start;
  }
  size_t emit_upto = open_start;
  // Bounded buffer: if the open session alone overflows the buffer,
  // force-emit its oldest clicks too (they keep their session tag).
  if (n - emit_upto > capacity_clicks_) emit_upto = n - capacity_clicks_;
  if (emit_upto == 0) return;
  EmitBuffered(key, *state, emit_upto, out);
  state->erase(4, emit_upto * payload_bytes_);
  SetStateCount(state, static_cast<uint32_t>(n - emit_upto));
}

void SessionizationIncReducer::Finalize(std::string_view key,
                                        std::string_view state,
                                        Emitter* out) {
  EmitBuffered(key, state, StateCount(state), out);
}

bool SessionizationIncReducer::TryDiscard(std::string_view key,
                                          std::string* state, Emitter* out) {
  const size_t n = StateCount(*state);
  if (n == 0) return true;
  // All sessions expired relative to the stream watermark? Then no future
  // click can join them: emit and discard instead of spilling (§6.2).
  if (StateTs(*state, payload_bytes_, n - 1) + kSessionGapSeconds <
      watermark_) {
    EmitBuffered(key, *state, n, out);
    state->clear();
    return true;
  }
  return false;
}

}  // namespace onepass
