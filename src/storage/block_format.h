// Block-oriented encoded byte path for spill/shuffle/bucket streams
// (DESIGN.md §5.5).
//
// A block stream batches KV records into ~32-64 KB blocks, each encoded
// with one of two schemes and optionally LZ-compressed:
//
//   stream := block*
//   block  := varint raw_len     KvBuffer-serialized bytes of the records
//             varint num_records
//             byte   flags       bit 0: encoding (0 prefix / 1 grouped)
//                                bit 1: body is LZ-compressed
//             [varint ubody_len] pre-compression body bytes (LZ blocks only)
//             varint body_len
//             body               encoded (then maybe compressed) records
//
//   kPrefix  (sorted runs)    record := varint shared | varint unshared |
//                             varint vlen | key-suffix | value, with a full
//                             key (shared = 0) every kRestartInterval
//                             records so damage cannot cascade past a
//                             restart point.
//   kGrouped (hash buckets)   run := varint klen | key | varint count |
//                             count * (varint vlen | value), collapsing
//                             adjacent equal keys to one key copy.
//
// Compression (src/util/compress.h) applies per block to the encoded body;
// a block whose compressed body is not smaller is stored raw (the
// incompressible passthrough — flag bit 1 stays clear). Decoding rebuilds
// the exact varint-prefixed KvBuffer byte stream, so a job that routes its
// intermediate data through blocks produces byte-identical records to one
// that does not.
//
// Checksums frame the *encoded* stream: callers hand the block stream to
// FramedWriter/FrameBytes, so CRCs cover post-compression bytes and
// corruption injection works on exactly what "disk" would hold.

#ifndef ONEPASS_STORAGE_BLOCK_FORMAT_H_
#define ONEPASS_STORAGE_BLOCK_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/util/kv_buffer.h"

namespace onepass {

// Which block codec a stream uses. kNone bypasses the block path entirely
// (raw KvBuffer bytes on disk/wire, byte-identical to the pre-codec
// platform); kLz is the block-encoded, LZ-compressed fast path.
enum class BlockCodecKind : uint8_t {
  kNone = 0,
  kLz = 1,
};

std::string_view BlockCodecName(BlockCodecKind kind);

// Target raw bytes per block of every stream a job encodes: map spill
// runs, shuffle pushes, reduce runs, bucket files and checkpoint images.
inline constexpr uint64_t kCodecBlockBytes = 48 << 10;

// How records are laid out inside a block.
enum class BlockEncoding : uint8_t {
  kPrefix = 0,   // shared-key-prefix (front) coding — for sorted runs
  kGrouped = 1,  // run-length key grouping — for hash-bucket streams
};

// Accounting for one encode/decode pass. raw/encoded bytes feed the
// JobMetrics codec counters; the nanosecond timers are wall-clock (host)
// measurements and must stay out of deterministic serializations.
struct CodecStats {
  uint64_t raw_bytes = 0;      // KvBuffer-serialized bytes in
  uint64_t encoded_bytes = 0;  // block-stream bytes out (incl. headers)
  uint64_t blocks = 0;
  uint64_t stored_blocks = 0;  // blocks kept uncompressed (LZ didn't pay)
  double compress_ns = 0;
  double decompress_ns = 0;
};

// Streaming encoder: feed records in stream order, take the block stream
// from Finish(). Records never straddle blocks; grouped runs never
// straddle blocks either.
class BlockBuilder {
 public:
  static constexpr int kRestartInterval = 16;

  // `block_bytes` is the target raw (pre-encoding) bytes per block;
  // `stats` may be null.
  BlockBuilder(BlockEncoding encoding, BlockCodecKind codec,
               uint64_t block_bytes, CodecStats* stats = nullptr);

  void Add(std::string_view key, std::string_view value);

  // Adds a whole RecordBatch in order — identical to calling Add per
  // record (block cuts depend only on the record sequence, so the encoded
  // stream is byte-identical at every batch size; DESIGN.md §5.8).
  void AddBatch(const std::string_view* keys, const std::string_view* values,
                size_t n) {
    for (size_t i = 0; i < n; ++i) Add(keys[i], values[i]);
  }

  // Flushes the open block and returns the stream. The builder is spent.
  std::string Finish();

 private:
  void CutBlock();
  void CloseRun();

  BlockEncoding encoding_;
  BlockCodecKind codec_;
  uint64_t block_bytes_;
  CodecStats* stats_;

  std::string out_;
  std::string body_;  // current block's encoded body (pre-compression)
  uint64_t raw_in_block_ = 0;
  uint64_t records_in_block_ = 0;

  // kPrefix state.
  std::string last_key_;
  int restart_countdown_ = 0;

  // kGrouped state: the open run's key and its value bytes (each value
  // varint-length-prefixed), flushed on key change or block cut.
  bool run_open_ = false;
  std::string run_key_;
  std::string run_values_;
  uint64_t run_count_ = 0;

  std::string scratch_;  // compression target, reused across blocks
};

// Encodes a whole KvBuffer into a block stream.
std::string EncodeKvStream(const KvBuffer& records, BlockEncoding encoding,
                           BlockCodecKind codec, uint64_t block_bytes,
                           CodecStats* stats = nullptr);

// Decodes a block stream back into the exact KvBuffer it was built from.
// Returns Status::Corruption on any malformed block (bad varints,
// truncated bodies, failed decompression, record-count or byte-count
// mismatches) — never reads out of bounds.
Result<KvBuffer> DecodeKvStream(std::string_view stream,
                                CodecStats* stats = nullptr);

}  // namespace onepass

#endif  // ONEPASS_STORAGE_BLOCK_FORMAT_H_
