#include "src/storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/util/coding.h"

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

// The delta that turns `base` into `next`, as link `link` of its chain.
KvBuffer DiffFields(const KvBuffer& base, const KvBuffer& next,
                    uint32_t link) {
  std::vector<Field> old;
  SplitFields(base, &old);
  KvBuffer delta;
  std::string op;
  PutVarint64(&op, link);
  PutVarint64(&op, old.size());
  delta.Append(kDeltaHeader, op);

  // Fields usually keep their relative order, so the base field after the
  // last match is tried first and the name index is built only on a miss.
  std::unordered_map<std::string_view, uint32_t> by_name;
  bool indexed = false;
  size_t cursor = 0;
  uint64_t run_first = 0, run_count = 0;
  auto flush_run = [&] {
    if (run_count == 0) return;
    op.assign(1, kOpCopy);
    PutVarint64(&op, run_first);
    PutVarint64(&op, run_count);
    delta.Append({}, op);
    run_count = 0;
  };
  KvBufferReader reader(next);
  std::string_view name, payload;
  while (reader.Next(&name, &payload)) {
    size_t j = old.size();
    if (cursor < old.size() && old[cursor].name == name) {
      j = cursor;
    } else {
      if (!indexed) {
        by_name.reserve(old.size());
        for (uint32_t i = 0; i < old.size(); ++i) {
          by_name.emplace(old[i].name, i);
        }
        indexed = true;
      }
      const auto it = by_name.find(name);
      if (it != by_name.end()) j = it->second;
    }
    if (j == old.size()) {
      flush_run();
      op.assign(1, kOpLiteral);
      op.append(payload);
      delta.Append(name, op);
      continue;
    }
    cursor = j + 1;
    const std::string_view was = old[j].payload;
    if (payload == was) {
      if (run_count > 0 && run_first + run_count == j) {
        ++run_count;
      } else {
        flush_run();
        run_first = j;
        run_count = 1;
      }
      continue;
    }
    flush_run();
    if (payload.size() > was.size() &&
        payload.compare(0, was.size(), was) == 0) {
      op.assign(1, kOpAppend);
      PutVarint64(&op, j);
      op.append(payload.substr(was.size()));
      delta.Append({}, op);
    } else {
      op.assign(1, kOpLiteral);
      op.append(payload);
      delta.Append(name, op);
    }
  }
  flush_run();
  return delta;
}

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

void CheckpointWriter::PutU64(std::string_view name, uint64_t v) {
  std::string payload(1, kTagU64);
  PutVarint64(&payload, v);
  fields_.Append(name, payload);
}

void CheckpointWriter::PutF64(std::string_view name, double v) {
  std::string payload(1, kTagF64);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(&payload, bits);
  fields_.Append(name, payload);
}

void CheckpointWriter::PutBytes(std::string_view name,
                                std::string_view bytes) {
  std::string payload(1, kTagBytes);
  payload.append(bytes);
  fields_.Append(name, payload);
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

KvBuffer CheckpointChain::Next(KvBuffer full) {
  KvBuffer image;
  bool delta = false;
  if (links_ > 0) {
    image = DiffFields(base_, full, links_);
    delta = delta_bytes_ + image.bytes() <= full_bytes_;
  }
  if (delta) {
    delta_bytes_ += image.bytes();
    ++links_;
  } else {
    image = full;
    full_bytes_ = full.bytes();
    delta_bytes_ = 0;
    links_ = 1;
  }
  base_ = std::move(full);
  return image;
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
