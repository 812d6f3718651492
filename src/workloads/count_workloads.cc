#include "src/workloads/count_workloads.h"

#include <cstdio>

#include "src/util/coding.h"
#include "src/workloads/clickstream.h"

namespace onepass {

std::string EncodeCountState(uint64_t count, bool emitted) {
  std::string out;
  out.reserve(9);
  PutFixed64(&out, count);
  out.push_back(emitted ? 1 : 0);
  return out;
}

bool DecodeCountState(std::string_view data, uint64_t* count,
                      bool* emitted) {
  if (data.size() < 9) return false;
  *count = DecodeFixed64(data.data());
  *emitted = data[8] != 0;
  return true;
}

void ClickCountMapper::Map(std::string_view /*key*/, std::string_view value,
                           Emitter* out) {
  Click c;
  if (!DecodeClick(value, &c)) return;
  const std::string key =
      field_ == ClickKeyField::kUser ? UserKey(c.user) : UrlKey(c.url);
  out->Emit(key, EncodeCountState(1, false));
}

void TrigramMapper::Map(std::string_view /*key*/, std::string_view value,
                        Emitter* out) {
  // Words are single-space separated, so a trigram is the contiguous span
  // from the first word's start to the third word's end.
  const std::string one = EncodeCountState(1, false);
  size_t starts[3] = {0, 0, 0};  // starts of the last three words seen
  int words = 0;
  size_t start = 0;
  for (size_t i = 0; i <= value.size(); ++i) {
    if (i == value.size() || value[i] == ' ') {
      if (i > start) {
        starts[0] = starts[1];
        starts[1] = starts[2];
        starts[2] = start;
        ++words;
        if (words >= 3) {
          out->Emit(value.substr(starts[0], i - starts[0]), one);
        }
      }
      start = i + 1;
    }
  }
}

void WordMapper::Map(std::string_view /*key*/, std::string_view value,
                     Emitter* out) {
  const std::string one = EncodeCountState(1, false);
  size_t start = 0;
  for (size_t i = 0; i <= value.size(); ++i) {
    if (i == value.size() || value[i] == ' ') {
      if (i > start) out->Emit(value.substr(start, i - start), one);
      start = i + 1;
    }
  }
}

std::string CountingIncReducer::Init(std::string_view /*key*/,
                                     std::string_view value) {
  // Values already carry the count-state encoding.
  uint64_t count = 1;
  bool emitted = false;
  if (DecodeCountState(value, &count, &emitted)) {
    return std::string(value.substr(0, 9));
  }
  return EncodeCountState(1, false);
}

void CountingIncReducer::Combine(std::string_view /*key*/,
                                 std::string* state,
                                 std::string_view other) {
  uint64_t c1 = 0, c2 = 0;
  bool e1 = false, e2 = false;
  DecodeCountState(*state, &c1, &e1);
  DecodeCountState(other, &c2, &e2);
  *state = EncodeCountState(c1 + c2, e1 || e2);
}

void CountingIncReducer::OnUpdate(std::string_view key, std::string* state,
                                  Emitter* out) {
  if (threshold_ == 0) return;
  uint64_t count = 0;
  bool emitted = false;
  if (!DecodeCountState(*state, &count, &emitted)) return;
  if (!emitted && count >= threshold_) {
    out->Emit(key, std::to_string(count));
    *state = EncodeCountState(count, true);
  }
}

void CountingIncReducer::Finalize(std::string_view key,
                                  std::string_view state, Emitter* out) {
  uint64_t count = 0;
  bool emitted = false;
  if (!DecodeCountState(state, &count, &emitted)) return;
  if (threshold_ == 0) {
    out->Emit(key, std::to_string(count));
  } else if (!emitted && count >= threshold_) {
    out->Emit(key, std::to_string(count));
  }
}

void CountingListReducer::Reduce(std::string_view key, ValueIterator* values,
                                 Emitter* out) {
  uint64_t total = 0;
  std::string_view v;
  while (values->Next(&v)) {
    uint64_t c = 0;
    bool e = false;
    if (DecodeCountState(v, &c, &e)) {
      total += c;
    }
  }
  if (threshold_ == 0 || total >= threshold_) {
    out->Emit(key, std::to_string(total));
  }
}

}  // namespace onepass
