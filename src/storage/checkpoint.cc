#include "src/storage/checkpoint.h"

#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/storage/stored_run.h"
#include "src/util/coding.h"

namespace onepass {

namespace {

// Field payloads are tagged with one type byte so a reader asking for the
// wrong type (schema drift between save and restore) fails loudly.
constexpr char kTagU64 = 'u';
constexpr char kTagF64 = 'f';
constexpr char kTagBytes = 'b';

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

Result<KvBuffer> CheckpointStore::Restore(RestoreStats* stats) const {
  // Ladder: newest instance first; within an instance, replica slots in
  // order. Every candidate charges its read; a corrupt one is rejected by
  // the CRC/length verifier and the ladder moves on — the damage-and-prove
  // step stored runs use (stored_run.h).
  for (size_t i = instances_.size(); i-- > 0;) {
    const EncodedCheckpoint& image = instances_[i];
    const uint32_t ordinal = static_cast<uint32_t>(i);
    for (int slot = 0; slot < replication_; ++slot) {
      stats->bytes_read += image.framed.size();
      const int chain =
          plan_ ? plan_->CheckpointCorruptions(reduce_task_, ordinal, slot)
                : 0;
      if (chain > 0) {
        ProveDamageDetected(
            image.framed,
            plan_->CorruptionDamage(sim::StreamKind::kCheckpoint,
                                    static_cast<uint64_t>(reduce_task_),
                                    (static_cast<uint64_t>(ordinal) << 8) |
                                        static_cast<uint64_t>(slot),
                                    /*gen=*/0, image.framed.size()),
            static_cast<int64_t>(image.payload_bytes));
        ++stats->corrupt_replicas;
        continue;
      }
      Result<KvBuffer> fields = DecodeCheckpoint(image, image.framed);
      CHECK(fields.ok()) << "clean checkpoint replica failed to decode: "
                         << fields.status().ToString();
      stats->ordinal = ordinal;
      return fields;
    }
  }
  return Status::NotFound(
      "no verifiable checkpoint replica: full replay required");
}

}  // namespace onepass
