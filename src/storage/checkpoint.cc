#include "src/storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/util/coding.h"
#include "src/util/hash.h"

namespace onepass {

namespace {

// Field payloads are tagged with one type byte so a reader asking for the
// wrong type (schema drift between save and restore) fails loudly.
constexpr char kTagU64 = 'u';
constexpr char kTagF64 = 'f';
constexpr char kTagBytes = 'b';

// Delta images (CheckpointChain). The header record's name holds a NUL, so
// no engine field name can collide with it; each op record's value starts
// with its op byte.
constexpr std::string_view kDeltaHeader("\0ckpt.delta", 11);
constexpr char kOpCopy = 'c';
constexpr char kOpAppend = 'a';
constexpr char kOpLiteral = 'l';

struct Field {
  std::string_view name;
  std::string_view payload;
};

// Splits a field stream into its records; false when the bytes do not
// parse as whole records.
bool SplitFields(const KvBuffer& stream, std::vector<Field>* fields) {
  fields->clear();
  // Every record takes at least two bytes, whatever count it claims.
  fields->reserve(std::min<uint64_t>(stream.count(), stream.bytes() / 2));
  KvBufferReader reader(stream);
  Field f;
  while (reader.Next(&f.name, &f.payload)) fields->push_back(f);
  return reader.AtEnd();
}

// A field payload still in two pieces: its type tag (or nothing) and its
// body, compared and copied without being joined.
struct Payload {
  std::string_view tag, body;

  size_t size() const { return tag.size() + body.size(); }
  // Whether the payload begins with `p` (no longer than the payload).
  bool StartsWith(std::string_view p) const {
    const size_t in_tag = std::min(p.size(), tag.size());
    return tag.substr(0, in_tag) == p.substr(0, in_tag) &&
           body.substr(0, p.size() - in_tag) == p.substr(in_tag);
  }
  bool operator==(std::string_view p) const {
    return p.size() == size() && StartsWith(p);
  }
  // The bytes from offset `from` on.
  Payload From(size_t from) const {
    if (from >= tag.size()) return {{}, body.substr(from - tag.size())};
    return {tag.substr(from), body};
  }
};

// Applies delta link `link` to `base`.
Result<KvBuffer> ApplyDelta(const KvBuffer& base, const KvBuffer& delta,
                            uint32_t link) {
  const std::string where = "checkpoint delta link " + std::to_string(link);
  std::vector<Field> old;
  if (!SplitFields(base, &old)) {
    return Status::Corruption(where + ": base stream is not whole records");
  }
  KvBufferReader reader(delta);
  std::string_view name, value;
  if (!reader.Next(&name, &value) || name != kDeltaHeader) {
    return Status::Corruption(where + ": not a delta image");
  }
  uint64_t stored_link = 0, base_fields = 0;
  if (!GetVarint64(&value, &stored_link) ||
      !GetVarint64(&value, &base_fields) || !value.empty()) {
    return Status::Corruption(where + ": malformed header");
  }
  if (stored_link != link) {
    return Status::Corruption(where + ": out of sequence (header names " +
                              std::to_string(stored_link) + ")");
  }
  if (base_fields != old.size()) {
    return Status::Corruption(where + ": header names " +
                              std::to_string(base_fields) +
                              " base fields, the base has " +
                              std::to_string(old.size()));
  }
  KvBuffer out;
  out.Reserve(base.bytes() + delta.bytes());
  std::string grown;
  while (reader.Next(&name, &value)) {
    if (value.empty()) return Status::Corruption(where + ": truncated op");
    const char kind = value[0];
    value.remove_prefix(1);
    if (kind == kOpLiteral) {
      out.Append(name, value);
      continue;
    }
    if (kind != kOpCopy && kind != kOpAppend) {
      return Status::Corruption(where + ": unknown op");
    }
    uint64_t first = 0;
    if (!GetVarint64(&value, &first)) {
      return Status::Corruption(where + ": truncated op");
    }
    if (kind == kOpAppend) {
      if (first >= old.size()) {
        return Status::Corruption(where + ": append to a missing field");
      }
      grown.assign(old[first].payload);
      grown.append(value);
      out.Append(old[first].name, grown);
      continue;
    }
    uint64_t count = 0;
    if (!GetVarint64(&value, &count) || !value.empty()) {
      return Status::Corruption(where + ": truncated op");
    }
    if (first > old.size() || count > old.size() - first) {
      return Status::Corruption(where + ": copy range past the base");
    }
    for (uint64_t i = first; i < first + count; ++i) {
      out.Append(old[i].name, old[i].payload);
    }
  }
  if (!reader.AtEnd()) return Status::Corruption(where + ": truncated op");
  return out;
}

}  // namespace

void CheckpointWriter::Put(std::string_view name, std::string_view tag,
                           std::string_view body) {
  if (chain_ != nullptr) {
    chain_->Add(name, tag, body, &fields_);
  } else {
    fields_.AppendParts(name, {tag, body});
  }
}

void CheckpointWriter::PutU64(std::string_view name, uint64_t v) {
  char buf[10];
  const char* const end = EncodeVarint64(buf, v);
  Put(name, std::string_view(&kTagU64, 1),
      std::string_view(buf, static_cast<size_t>(end - buf)));
}

void CheckpointWriter::PutF64(std::string_view name, double v) {
  static_assert(sizeof(v) == sizeof(uint64_t), "double must be 64-bit");
  char bits[sizeof(v)];  // what PutFixed64 writes for the bit pattern
  std::memcpy(bits, &v, sizeof(v));
  Put(name, std::string_view(&kTagF64, 1),
      std::string_view(bits, sizeof(bits)));
}

void CheckpointWriter::PutBytes(std::string_view name,
                                std::string_view bytes) {
  Put(name, std::string_view(&kTagBytes, 1), bytes);
}

Status CheckpointReader::Next(std::string_view name, char type_tag,
                              std::string_view* value) {
  std::string_view stored_name, payload;
  if (!reader_.Next(&stored_name, &payload)) {
    return Status::Corruption("checkpoint field stream ended before '" +
                              std::string(name) + "'");
  }
  if (stored_name != name) {
    return Status::Corruption("checkpoint field mismatch: expected '" +
                              std::string(name) + "', found '" +
                              std::string(stored_name) + "'");
  }
  if (payload.empty() || payload[0] != type_tag) {
    return Status::Corruption("checkpoint field '" + std::string(name) +
                              "' has the wrong type tag");
  }
  *value = payload.substr(1);
  return Status::OK();
}

Status CheckpointReader::GetU64(std::string_view name, uint64_t* v) {
  std::string_view payload;
  RETURN_IF_ERROR(Next(name, kTagU64, &payload));
  if (!GetVarint64(&payload, v) || !payload.empty()) {
    return Status::Corruption("checkpoint field '" + std::string(name) +
                              "' is not a valid u64");
  }
  return Status::OK();
}

Status CheckpointReader::GetF64(std::string_view name, double* v) {
  std::string_view payload;
  RETURN_IF_ERROR(Next(name, kTagF64, &payload));
  if (payload.size() != sizeof(uint64_t)) {
    return Status::Corruption("checkpoint field '" + std::string(name) +
                              "' is not a valid f64");
  }
  const uint64_t bits = DecodeFixed64(payload.data());
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status CheckpointReader::GetBytes(std::string_view name,
                                  std::string_view* bytes) {
  return Next(name, kTagBytes, bytes);
}

EncodedCheckpoint EncodeCheckpoint(const KvBuffer& fields,
                                   BlockCodecKind codec,
                                   uint64_t codec_block_bytes,
                                   uint64_t integrity_block_bytes) {
  EncodedCheckpoint image;
  image.raw_bytes = fields.bytes();
  image.raw_count = fields.count();
  image.coded = codec != BlockCodecKind::kNone;
  if (image.coded) {
    const std::string stream = EncodeKvStream(
        fields, BlockEncoding::kGrouped, codec, codec_block_bytes);
    image.payload_bytes = stream.size();
    image.framed = FrameBytes(stream, integrity_block_bytes);
  } else {
    image.payload_bytes = fields.bytes();
    image.framed = FrameBytes(fields.data(), integrity_block_bytes);
  }
  return image;
}

Result<KvBuffer> DecodeCheckpoint(const EncodedCheckpoint& image,
                                  std::string_view framed) {
  ASSIGN_OR_RETURN(
      std::string payload,
      ReadAllFramed(framed,
                    static_cast<int64_t>(image.payload_bytes)));
  if (image.coded) {
    ASSIGN_OR_RETURN(KvBuffer fields, DecodeKvStream(payload));
    if (fields.bytes() != image.raw_bytes ||
        fields.count() != image.raw_count) {
      return Status::Corruption(
          "checkpoint block stream decoded to the wrong size");
    }
    return fields;
  }
  return KvBuffer::FromData(std::move(payload), image.raw_count);
}

void CheckpointChain::Begin(CheckpointWriter* w) {
  w->fields_.Clear();
  w->image_ = nullptr;
  w->chain_ = this;
  delta_open_ = links_ > 0;
  if (delta_open_) {
    std::string header;
    PutVarint64(&header, links_);
    PutVarint64(&header, base_fields_.size());
    w->fields_.Append(kDeltaHeader, header);
  }
}

size_t CheckpointChain::Find(std::string_view name) {
  const size_t n = base_fields_.size();
  if (!indexed_) {
    size_t slots = 16;
    while (slots < 2 * n) slots *= 2;
    by_name_.assign(slots, 0);
    for (size_t i = 0; i < n; ++i) {
      const std::string_view field = BaseName(i);
      for (size_t s = HashBytes(field) & (slots - 1);;
           s = (s + 1) & (slots - 1)) {
        if (by_name_[s] == 0) {
          by_name_[s] = static_cast<uint32_t>(i + 1);
          break;
        }
        if (BaseName(by_name_[s] - 1) == field) break;  // the first one stays
      }
    }
    indexed_ = true;
  }
  const size_t mask = by_name_.size() - 1;
  for (size_t s = HashBytes(name) & mask;; s = (s + 1) & mask) {
    const uint32_t e = by_name_[s];
    if (e == 0) return n;
    if (BaseName(e - 1) == name) return e - 1;
  }
}

void CheckpointChain::AppendNext(std::string_view name, std::string_view tag,
                                 std::string_view body) {
  next_.AppendParts(name, {tag, body});
  const uint32_t size = static_cast<uint32_t>(tag.size() + body.size());
  const uint64_t payload_at = next_.bytes() - size;
  next_fields_.push_back(
      {payload_at - static_cast<uint64_t>(VarintLength(size)) - name.size(),
       payload_at, static_cast<uint32_t>(name.size()), size});
}

void CheckpointChain::FlushRun(KvBuffer* delta) {
  if (run_count_ == 0) return;
  // The run's records sit back to back in the base: one copy moves them
  // into the next stream, and their spans shift by the same distance.
  const FieldSpan& first = base_fields_[run_first_];
  const FieldSpan& last = base_fields_[run_first_ + run_count_ - 1];
  const uint64_t from =
      first.name_at - static_cast<uint64_t>(VarintLength(first.name_len));
  const uint64_t to = last.payload_at + last.payload_len;
  const uint64_t at = next_.bytes();
  next_.AppendRecords(
      std::string_view(base_.data().data() + from, to - from), run_count_);
  for (uint64_t k = run_first_; k < run_first_ + run_count_; ++k) {
    FieldSpan f = base_fields_[k];
    f.name_at = f.name_at - from + at;
    f.payload_at = f.payload_at - from + at;
    next_fields_.push_back(f);
  }
  if (delta_open_) {
    op_.assign(1, kOpCopy);
    PutVarint64(&op_, run_first_);
    PutVarint64(&op_, run_count_);
    delta->Append({}, op_);
  }
  run_count_ = 0;
}

void CheckpointChain::Add(std::string_view name, std::string_view tag,
                          std::string_view body, KvBuffer* delta) {
  if (links_ == 0) {  // the chain's first image: nothing to diff against
    AppendNext(name, tag, body);
    return;
  }
  // A delta already past the compaction budget is not stored, so the rest
  // of the save writes no ops; unchanged fields still move by run.
  if (delta_open_ && delta_bytes_ + delta->bytes() > full_bytes_) {
    delta_open_ = false;
  }
  size_t j = cursor_;
  if (j >= base_fields_.size() || BaseName(j) != name) j = Find(name);
  const Payload payload{tag, body};
  if (j == base_fields_.size()) {
    FlushRun(delta);
    AppendNext(name, tag, body);
    if (delta_open_) {
      delta->AppendParts(name, {std::string_view(&kOpLiteral, 1), tag, body});
    }
    return;
  }
  cursor_ = j + 1;
  const FieldSpan& f = base_fields_[j];
  const std::string_view was(base_.data().data() + f.payload_at,
                             f.payload_len);
  if (payload == was) {
    if (run_count_ == 0 || run_first_ + run_count_ != j) {
      FlushRun(delta);
      run_first_ = j;
    }
    ++run_count_;
    return;
  }
  FlushRun(delta);
  AppendNext(name, tag, body);
  if (!delta_open_) return;
  if (payload.size() > was.size() && payload.StartsWith(was)) {
    op_.assign(1, kOpAppend);
    PutVarint64(&op_, j);
    const Payload grown = payload.From(was.size());
    delta->AppendParts({}, {op_, grown.tag, grown.body});
  } else {
    delta->AppendParts(name, {std::string_view(&kOpLiteral, 1), tag, body});
  }
}

void CheckpointChain::End(CheckpointWriter* w, bool keep) {
  w->chain_ = nullptr;
  if (keep) {
    FlushRun(&w->fields_);
    std::swap(base_, next_);
    std::swap(base_fields_, next_fields_);
    if (delta_open_ && delta_bytes_ + w->fields_.bytes() <= full_bytes_) {
      delta_bytes_ += w->fields_.bytes();
      ++links_;
    } else {
      w->fields_.Clear();
      w->image_ = &base_;
      full_bytes_ = base_.bytes();
      delta_bytes_ = 0;
      links_ = 1;
    }
  } else {
    w->fields_.Clear();
  }
  next_.Clear();
  next_fields_.clear();
  delta_open_ = false;
  cursor_ = 0;
  run_count_ = 0;
  indexed_ = false;
}

KvBuffer CheckpointChain::Next(const KvBuffer& full) {
  CheckpointWriter w;
  Begin(&w);
  KvBufferReader reader(full);
  std::string_view name, payload;
  while (reader.Next(&name, &payload)) w.Put(name, {}, payload);
  End(&w, true);
  return w.Take();
}

Result<KvBuffer> ResolveCheckpointChain(std::vector<KvBuffer> links) {
  if (links.empty()) return Status::Corruption("empty checkpoint chain");
  KvBufferReader head(links[0]);
  std::string_view name, value;
  if (head.Next(&name, &value) && name == kDeltaHeader) {
    return Status::Corruption("checkpoint chain starts with a delta image");
  }
  KvBuffer stream = std::move(links[0]);
  for (size_t i = 1; i < links.size(); ++i) {
    ASSIGN_OR_RETURN(stream, ApplyDelta(stream, links[i],
                                        static_cast<uint32_t>(i)));
  }
  return stream;
}

}  // namespace onepass
