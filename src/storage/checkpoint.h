// Reduce-state checkpointing (DESIGN.md §5.6).
//
// A checkpoint is a named, ordered field stream — the engine walks its
// state (hash-table entries, sketch slots, bucket files, run manifests)
// into a CheckpointWriter, and a restore reads the same fields back in the
// same order through a CheckpointReader, with every name and type checked
// so a damaged or mismatched image surfaces as Status::Corruption instead
// of silently mis-seeding an engine.
//
// A reducer's images form chains. The first image of a chain is the full
// field stream; each later one is a delta image (CheckpointChain) that
// carries only the fields that changed since the previous image, and
// ResolveCheckpointChain rebuilds the full stream from a chain's links.
//
// Every image is a KvBuffer (name -> payload records), so it rides the
// platform's existing byte paths: EncodeCheckpoint runs it through the
// block codec (DESIGN.md §5.5) when one is active and frames the result in
// CRC32C blocks (DESIGN.md §5.2), which makes a stored checkpoint replica
// torn-write-detectable exactly like a spill run or a DFS chunk.
//
// Which replicas a restore reads, and which image it resumes from, is
// decided in one place: the time plane's CheckpointLadder
// (src/mr/checkpoint_ladder.h). The data plane prices each image and
// discards it; DecodeCheckpoint and ResolveCheckpointChain are the
// format's inverse, which the checkpoint tests run.

#ifndef ONEPASS_STORAGE_CHECKPOINT_H_
#define ONEPASS_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/storage/block_format.h"
#include "src/storage/framed_io.h"
#include "src/util/kv_buffer.h"

namespace onepass {

// Serializes named, typed fields into a KvBuffer in call order.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  // Continues (or holds) an already-built field stream.
  explicit CheckpointWriter(KvBuffer fields) : fields_(std::move(fields)) {}

  void PutU64(std::string_view name, uint64_t v);
  // Stored as the IEEE-754 bit pattern, so save/restore round trips are
  // bit-exact (MergeScheduler sizes are doubles).
  void PutF64(std::string_view name, double v);
  void PutBytes(std::string_view name, std::string_view bytes);

  const KvBuffer& fields() const { return fields_; }
  KvBuffer Take() { return std::move(fields_); }

 private:
  KvBuffer fields_;
};

// Sequential reader over a checkpoint's field stream. Every Get checks the
// stored name and type tag against what the caller expects; a mismatch —
// wrong engine, wrong config shape, or a decode that slipped past the
// CRCs — returns Status::Corruption.
class CheckpointReader {
 public:
  explicit CheckpointReader(const KvBuffer& fields) : reader_(fields) {}

  Status GetU64(std::string_view name, uint64_t* v);
  Status GetF64(std::string_view name, double* v);
  // The returned view points into the underlying field buffer and stays
  // valid for the buffer's lifetime.
  Status GetBytes(std::string_view name, std::string_view* bytes);

 private:
  Status Next(std::string_view name, char type_tag, std::string_view* value);

  KvBufferReader reader_;
};

// One encoded checkpoint image: the framed bytes a replica stores, plus
// the out-of-band sizes the verifier needs (a namenode-style manifest).
struct EncodedCheckpoint {
  std::string framed;      // CRC-framed (possibly codec-encoded) image
  uint64_t payload_bytes = 0;  // pre-framing bytes (torn-write check)
  uint64_t raw_bytes = 0;      // KvBuffer field-stream bytes
  uint64_t raw_count = 0;      // field records in the stream
  bool coded = false;          // payload is a block stream, not raw fields
};

// Encodes a field stream for storage: block-codec encode (when `codec` is
// not kNone), then CRC framing with `integrity_block_bytes` blocks.
EncodedCheckpoint EncodeCheckpoint(const KvBuffer& fields,
                                   BlockCodecKind codec,
                                   uint64_t codec_block_bytes,
                                   uint64_t integrity_block_bytes);

// Verifies and decodes one stored image back to its field stream. Returns
// Status::Corruption on any CRC, length, or block-format failure.
Result<KvBuffer> DecodeCheckpoint(const EncodedCheckpoint& image,
                                  std::string_view framed);

// The save side of a reducer's image chain. Next() takes the engine's
// full field stream and returns the image to store:
//  - the full stream itself on the chain's first save, and whenever the
//    chain's delta bytes since its full image would exceed that image's
//    bytes (the compaction rule; it compares raw field-stream bytes, so
//    no codec ratio enters it);
//  - otherwise a delta image against the previous save's stream.
// A delta is a KvBuffer of ops in the new stream's order: a header record
// naming its link number (1 for the first delta after a full image) and
// the base's field count, then ops that copy a run of unchanged base
// fields, append a suffix to a base field that only grew, or carry a new
// or changed field literally. The diff matches fields by name, so it
// relies on field names being unique within a stream.
class CheckpointChain {
 public:
  KvBuffer Next(KvBuffer full);

  // Images in the chain ending at the last one Next() returned (1: a full
  // image; 0: nothing saved yet).
  uint32_t links() const { return links_; }

 private:
  KvBuffer base_;             // the previous save's full stream
  uint64_t full_bytes_ = 0;   // raw bytes of the chain's full image
  uint64_t delta_bytes_ = 0;  // raw delta bytes written since it
  uint32_t links_ = 0;
};

// Rebuilds a full field stream from one chain: links[0] is a full image,
// links[i] the i-th delta after it. A delta that does not apply to the
// stream before it — a missing or out-of-sequence header, a base field
// count that differs, a copy range past the base, an append to a missing
// field, an unknown or truncated op — is Status::Corruption.
Result<KvBuffer> ResolveCheckpointChain(std::vector<KvBuffer> links);

}  // namespace onepass

#endif  // ONEPASS_STORAGE_CHECKPOINT_H_
