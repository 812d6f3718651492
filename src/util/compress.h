// A dependency-free LZ-style block codec (DESIGN.md §5.5).
//
// Greedy hash-chain matcher over a 64 KB window emitting byte-aligned
// tokens, LZ4-flavoured: each sequence is a token byte (high nibble =
// literal length, low nibble = match length - kMinMatch, 15 = extended by
// 255-run continuation bytes), the literal bytes, and — unless the stream
// ends after the literals — a 2-byte little-endian match offset. The
// decoder stops when the input is exhausted, so the final sequence is
// literals-only.
//
// This is a *block* codec: callers compress bounded chunks (the ~32-64 KB
// blocks cut by BlockBuilder), pass the raw size out of band, and fall back
// to a stored copy when compression does not pay (incompressible-block
// passthrough lives in block_format.cc, not here). Decompression is fully
// bounds-checked: malformed or truncated input returns false, never reads
// or writes out of range.

#ifndef ONEPASS_UTIL_COMPRESS_H_
#define ONEPASS_UTIL_COMPRESS_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace onepass {

// Upper bound on the compressed size of `raw_size` input bytes (worst case
// is all-literals plus token/run overhead). LzCompress writes into output
// presized to this bound.
size_t LzMaxCompressedSize(size_t raw_size);

// Appends the compressed image of `input` to *out and returns the number
// of bytes appended. Inputs larger than ~1 GB are rejected (returns 0 and
// appends nothing); block callers never get near that. The matcher's hash
// chains live in a table each thread allocates once (384 KB), so a call
// allocates nothing beyond `out`'s growth.
size_t LzCompress(std::string_view input, std::string* out);

// Appends exactly `raw_size` decompressed bytes to *out. Returns false —
// leaving *out restored to its original size — if `input` is malformed,
// truncated, or does not decode to exactly `raw_size` bytes. No input byte
// decodes to more than 255 output bytes, so a larger `raw_size` is refused
// before any allocation.
bool LzDecompress(std::string_view input, size_t raw_size, std::string* out);

}  // namespace onepass

#endif  // ONEPASS_UTIL_COMPRESS_H_
