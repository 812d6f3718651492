// Checksummed block framing for simulated persistent and network byte
// streams (DESIGN.md §5.2).
//
// Every stream the platform pretends to persist or ship — DFS chunks,
// map-output spill runs, shuffle segments, hash-engine spill buckets —
// is framed as a sequence of blocks:
//
//   stream := block*
//   block  := fixed32 payload_len | fixed32 MaskCrc(crc32c(payload)) | payload
//
// with payload_len in (0, block_bytes]. A reader verifies every block's
// CRC and, given the expected payload size (which the owner of a stream
// always records out of band, like a namenode's file length), detects
// torn writes: a stream truncated mid-block fails its last CRC, and one
// truncated at a block boundary comes up short against the expected
// size. Both surface as Status::Corruption.

#ifndef ONEPASS_STORAGE_FRAMED_IO_H_
#define ONEPASS_STORAGE_FRAMED_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace onepass {

// The integrity constants, carried by JobConfig. Every simulated stream
// is framed and verified; the framing/verify work is deliberately NOT
// charged to the time plane (see DESIGN.md §5.2), so it shows in metrics
// only.
struct IntegrityConfig {
  // Max payload bytes per framed block of every job stream.
  static constexpr uint64_t block_bytes = 32 << 10;
  // Always true: it keeps a name because perfbench reads it.
  static constexpr bool checksums = true;
};

// Bytes of framing (headers) a payload of `payload_bytes` carries when
// framed with blocks of `block_bytes`.
uint64_t FramedOverheadBytes(uint64_t payload_bytes, uint64_t block_bytes);

// Incremental framer. Appends framed blocks to *dst; payload handed to
// Append() is cut into block_bytes-sized blocks. The framed image is a
// pure function of the concatenated payload (append granularity does not
// move block boundaries), which keeps re-framed rebuilds byte-identical.
class FramedWriter {
 public:
  FramedWriter(std::string* dst, uint64_t block_bytes);

  void Append(std::string_view payload);
  // Flushes the partial block, if any. Must be called before reading.
  void Finish();

 private:
  void EmitBlock(std::string_view payload);

  std::string* dst_;
  uint64_t block_bytes_;
  std::string pending_;  // partial block not yet emitted
};

// Frames `payload` in one shot.
std::string FrameBytes(std::string_view payload, uint64_t block_bytes);

// Verifies and unframes a whole stream. Returns the concatenated payload,
// or Status::Corruption on a CRC mismatch, a malformed header, or (when
// expected_payload_bytes >= 0) a payload that comes up short or long —
// the torn-write case.
Result<std::string> ReadAllFramed(std::string_view framed,
                                  int64_t expected_payload_bytes = -1);

// Verify-only variant: checks every block and the expected size without
// materializing the payload.
Status VerifyFramed(std::string_view framed,
                    int64_t expected_payload_bytes = -1);

// --- Deterministic damage, used by the fault injector and tests. ---

// Flips bit `bit_index % (8 * s->size())` of *s.
void FlipBit(std::string* s, uint64_t bit_index);

// Truncates *s to `keep_bytes % s->size()` bytes (a torn write).
void TornTruncate(std::string* s, uint64_t keep_bytes);

}  // namespace onepass

#endif  // ONEPASS_STORAGE_FRAMED_IO_H_
