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
#include "src/util/coding.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class CheckpointChain;

// Serializes named, typed fields into a field stream in call order. A
// writer builds the full stream, unless a CheckpointChain has bound it for
// a save: then it also checks each field against the chain's previous
// stream as the field is written, and fields() ends as the image the chain
// chose (CheckpointChain::Save).
class CheckpointWriter {
 public:
  CheckpointWriter() = default;

  void PutU64(std::string_view name, uint64_t v);
  // Stored as the IEEE-754 bit pattern, so save/restore round trips are
  // bit-exact (MergeScheduler sizes are doubles).
  void PutF64(std::string_view name, double v);
  void PutBytes(std::string_view name, std::string_view bytes);

  // The stream written, or after a chain's save the image it chose. A full
  // image is the chain's retained stream: it stays valid until the chain's
  // next save or reset, and Take() copies it out.
  const KvBuffer& fields() const {
    return image_ != nullptr ? *image_ : fields_;
  }
  KvBuffer Take() {
    if (image_ != nullptr) return *image_;
    return std::move(fields_);
  }

 private:
  friend class CheckpointChain;

  // Writes one field whose payload is `tag` (its type byte, or nothing
  // when a chain replays a built stream) followed by `body`.
  void Put(std::string_view name, std::string_view tag,
           std::string_view body);

  KvBuffer fields_;
  CheckpointChain* chain_ = nullptr;  // the chain whose save is open
  const KvBuffer* image_ = nullptr;   // a full image: the chain's stream
};

// The names of one indexed field family: `prefix` followed by the index
// in decimal (what prefix + std::to_string(index) spells), built in one
// reused buffer so a save's walk allocates no name per field.
class FieldName {
 public:
  explicit FieldName(std::string_view prefix)
      : name_(prefix), prefix_size_(prefix.size()) {}

  // Valid until the next call.
  std::string_view operator()(uint64_t index) {
    name_.resize(prefix_size_);
    PutDecimal(&name_, index, 0);
    return name_;
  }

 private:
  std::string name_;
  size_t prefix_size_;
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

// The save side of a reducer's image chain. Each save stores
//  - the full stream on the chain's first save, and whenever the chain's
//    delta bytes since its full image would exceed that image's bytes (the
//    compaction rule; it compares raw field-stream bytes, so no codec ratio
//    enters it);
//  - otherwise a delta image against the previous save's stream.
// A delta is a KvBuffer of ops in the new stream's order: a header record
// naming its link number (1 for the first delta after a full image) and
// the base's field count, then ops that copy a run of unchanged base
// fields, append a suffix to a base field that only grew, or carry a new
// or changed field literally. Fields are matched by name (the base field
// after the last match first, else the first of that name), so the diff
// relies on field names being unique within a stream.
//
// The diff runs in place: the chain retains the previous stream and the
// position of each of its fields, and a bound writer compares every field
// against them as it is written. A save moves each run of unchanged fields
// into the stream the next save diffs against with one copy, and writes
// ops only for what changed.
class CheckpointChain {
 public:
  // Runs one save: `write_state(w)` writes the full field stream into `w`,
  // which the chain binds for the call; afterwards w->fields() is the
  // image to store. A failed write leaves the chain as it was.
  template <typename WriteState>
  Status Save(CheckpointWriter* w, WriteState&& write_state) {
    Begin(w);
    Status s = write_state(w);
    End(w, s.ok());
    return s;
  }

  // Saves an already-built full stream (its fields replayed through a
  // bound writer) and returns the image to store.
  KvBuffer Next(const KvBuffer& full);

  // Images in the chain ending at the last save (1: a full image; 0:
  // nothing saved yet).
  uint32_t links() const { return links_; }

 private:
  friend class CheckpointWriter;

  // Where one field's name and payload sit in a stream's bytes.
  struct FieldSpan {
    uint64_t name_at;
    uint64_t payload_at;
    uint32_t name_len;
    uint32_t payload_len;
  };

  void Begin(CheckpointWriter* w);
  void End(CheckpointWriter* w, bool keep);
  // One field of the stream being saved, diffed against the base; ops go
  // to `delta`.
  void Add(std::string_view name, std::string_view tag, std::string_view body,
           KvBuffer* delta);
  std::string_view BaseName(size_t i) const {
    return std::string_view(base_.data().data() + base_fields_[i].name_at,
                            base_fields_[i].name_len);
  }
  // The first base field named `name`, or base_fields_.size().
  size_t Find(std::string_view name);
  // Appends one field to the next stream.
  void AppendNext(std::string_view name, std::string_view tag,
                  std::string_view body);
  // Moves the pending run of unchanged base fields into the next stream
  // and, while the delta is open, writes its copy op.
  void FlushRun(KvBuffer* delta);

  KvBuffer base_;  // the previous save's full stream
  std::vector<FieldSpan> base_fields_;
  KvBuffer next_;  // the stream being saved
  std::vector<FieldSpan> next_fields_;
  uint64_t full_bytes_ = 0;   // raw bytes of the chain's full image
  uint64_t delta_bytes_ = 0;  // raw delta bytes written since it
  uint32_t links_ = 0;

  // Diff state of the open save. Fields usually keep their relative
  // order, so the base field after the last match is tried first and the
  // name index is built only on a miss: an open-addressing table of base
  // field numbers + 1 (0: empty), at most half full, keyed by name hash.
  // False when this save writes no ops: the chain has no base yet, or the
  // delta has passed the compaction budget.
  bool delta_open_ = false;
  size_t cursor_ = 0;
  uint64_t run_first_ = 0, run_count_ = 0;  // pending unchanged run
  std::vector<uint32_t> by_name_;
  bool indexed_ = false;
  std::string op_;
};

// Rebuilds a full field stream from one chain: links[0] is a full image,
// links[i] the i-th delta after it. A delta that does not apply to the
// stream before it — a missing or out-of-sequence header, a base field
// count that differs, a copy range past the base, an append to a missing
// field, an unknown or truncated op — is Status::Corruption.
Result<KvBuffer> ResolveCheckpointChain(std::vector<KvBuffer> links);

}  // namespace onepass

#endif  // ONEPASS_STORAGE_CHECKPOINT_H_
