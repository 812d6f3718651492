#include "src/util/compress.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>

namespace onepass {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// The hash width is part of the format in practice: it decides which
// candidates a chain holds within its depth cap, so another width
// changes the compressed bytes.
constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1u << kHashBits;
// prev[] is a ring over the window: a chain walk reads prev only for
// candidates within kMaxOffset of the current position, whose entries no
// later position has overwritten yet.
constexpr size_t kWindow = kMaxOffset + 1;
// Inputs up to this many bytes reset the head table by re-hashing the
// positions they inserted; after a larger one the next call clears all
// 128 KB of it, which costs about as much as re-hashing 3-4 KB of text.
constexpr size_t kSmallInput = 4 << 10;
// Positions examined per match attempt; bounds worst-case compress time on
// degenerate inputs without measurably hurting the ratio on block-sized
// chunks.
constexpr int kMaxChainDepth = 32;
constexpr size_t kMaxInput = 1u << 30;
// Most output bytes one input byte can decode to: a match token, its
// 2-byte offset and k 255-run bytes (3 + k input bytes) yield at most
// 18 + 255 * k output bytes.
constexpr size_t kMaxExpansion = 255;

inline uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t Hash4(const char* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of [a, limit) and [b, limit), where a < b.
// On little-endian hosts it compares 8 bytes at a time: the lowest set
// bit of the XOR lies in the first differing byte.
inline size_t MatchLength(const char* a, const char* b, const char* limit) {
  const char* start = b;
  if constexpr (std::endian::native == std::endian::little) {
    while (limit - b >= 8) {
      const uint64_t diff = Load64(a) ^ Load64(b);
      if (diff != 0) {
        return static_cast<size_t>(b - start) +
               static_cast<size_t>(std::countr_zero(diff) >> 3);
      }
      a += 8;
      b += 8;
    }
  }
  while (b < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<size_t>(b - start);
}

// Writes the 255-run continuation of a length whose token nibble is 15.
inline char* PutLengthRun(size_t rem, char* dst) {
  while (rem >= 255) {
    *dst++ = static_cast<char>(255);
    rem -= 255;
  }
  *dst++ = static_cast<char>(rem);
  return dst;
}

// Writes one sequence at `dst` and returns its end: `lit_len` literal
// bytes from `lits` followed (unless this is the stream-final
// literals-only sequence, match_len == 0) by a match of `match_len` bytes
// at `offset` back.
char* EmitSequence(const char* lits, size_t lit_len, size_t match_len,
                   size_t offset, char* dst) {
  const uint8_t lit_code =
      lit_len >= 15 ? 15 : static_cast<uint8_t>(lit_len);
  uint8_t match_code = 0;
  if (match_len > 0) {
    const size_t m = match_len - kMinMatch;
    match_code = m >= 15 ? 15 : static_cast<uint8_t>(m);
  }
  *dst++ = static_cast<char>((lit_code << 4) | match_code);
  if (lit_code == 15) dst = PutLengthRun(lit_len - 15, dst);
  if (lit_len > 0) std::memcpy(dst, lits, lit_len);
  dst += lit_len;
  if (match_len == 0) return dst;
  *dst++ = static_cast<char>(offset & 0xff);
  *dst++ = static_cast<char>((offset >> 8) & 0xff);
  if (match_code == 15) dst = PutLengthRun(match_len - kMinMatch - 15, dst);
  return dst;
}

// The hash chains of one thread's LzCompress calls: head[h] is the most
// recent position with hash h (-1: none), prev[i % kWindow] the previous
// position sharing position i's hash (written when i enters its chain,
// before any walk can read it). Allocated once per thread, 384 KB
// whatever the inputs. Every call must find head all -1: it would take a
// leftover position as a candidate, and one equal to the position being
// matched is a zero-offset match the decoder rejects.
struct MatchTable {
  int32_t head[kHashSize];
  int32_t prev[kWindow];
  // The last call inserted more than kSmallInput positions and left head
  // as it was; the next call clears it whole first, so the lines the
  // clear brings into cache are the ones that call is about to use.
  bool dirty = true;

  // Makes head all -1 for the call about to start.
  void Ready() {
    if (!dirty) return;
    std::fill(std::begin(head), std::end(head), -1);
    dirty = false;
  }

  // Ends a call that inserted positions [0, inserted_end) of `base`.
  void Reset(const char* base, size_t inserted_end) {
    if (inserted_end > kSmallInput) {
      dirty = true;
      return;
    }
    for (size_t j = 0; j < inserted_end; ++j) head[Hash4(base + j)] = -1;
  }
};

MatchTable& ThreadMatchTable() {
  thread_local const std::unique_ptr<MatchTable> table =
      std::make_unique<MatchTable>();
  return *table;
}

}  // namespace

size_t LzMaxCompressedSize(size_t raw_size) {
  // All-literals: one token + length run (~1 byte per 255 literals) + data.
  return raw_size + raw_size / 255 + 16;
}

size_t LzCompress(std::string_view input, std::string* out) {
  if (input.size() > kMaxInput) return 0;
  const size_t before = out->size();
  const size_t n = input.size();
  // Sequences are written through a pointer into output presized to the
  // worst case and trimmed at the end.
  out->resize(before + LzMaxCompressedSize(n));
  char* const dst_begin = out->data() + before;
  char* dst = dst_begin;
  const char* base = input.data();
  size_t lit_start = 0;
  if (n >= kMinMatch + 1) {
    MatchTable& table = ThreadMatchTable();
    table.Ready();
    int32_t* const head = table.head;
    int32_t* const prev = table.prev;
    const char* limit = base + n;
    // The last position where a 4-byte load is in range.
    const size_t match_end = n - kMinMatch;

    size_t i = 0;
    while (i <= match_end) {
      const char* cur = base + i;
      const uint32_t h = Hash4(cur);
      size_t best_len = 0;
      size_t best_offset = 0;
      // A candidate wins only by matching all of bytes [0, need], where
      // need = max(best_len, kMinMatch - 1); so if the 4 bytes ending at
      // `need` differ it cannot win and skips the full compare (it still
      // counts against the depth cap).
      size_t probe = 0;  // need - 3
      uint32_t cur_word = Load32(cur);
      int32_t cand = head[h];
      for (int depth = 0; cand >= 0 && depth < kMaxChainDepth;
           ++depth, cand = prev[static_cast<size_t>(cand) % kWindow]) {
        const size_t offset = i - static_cast<size_t>(cand);
        if (offset > kMaxOffset) break;  // chain is position-ordered
        const char* ref = base + cand;
        if (Load32(ref + probe) != cur_word) continue;
        const size_t len = MatchLength(ref, cur, limit);
        if (len > best_len) {  // so len >= kMinMatch, by the probe
          best_len = len;
          best_offset = offset;
          if (i + best_len == n) break;  // no later candidate can be longer
          probe = best_len - 3;
          cur_word = Load32(cur + probe);
        }
      }
      if (best_len == 0) {
        prev[i % kWindow] = head[h];
        head[h] = static_cast<int32_t>(i);
        ++i;
        continue;
      }
      dst = EmitSequence(base + lit_start, i - lit_start, best_len,
                         best_offset, dst);
      // Index the matched region so later data can reference into it.
      const size_t insert_end = std::min(i + best_len, match_end + 1);
      for (size_t j = i; j < insert_end; ++j) {
        const uint32_t hj = Hash4(base + j);
        prev[j % kWindow] = head[hj];
        head[hj] = static_cast<int32_t>(j);
      }
      i += best_len;
      lit_start = i;
    }
    // Every position up to match_end entered a chain.
    table.Reset(base, match_end + 1);
  }
  dst = EmitSequence(base + lit_start, n - lit_start, 0, 0, dst);
  const size_t written = static_cast<size_t>(dst - dst_begin);
  out->resize(before + written);
  return written;
}

namespace {

// Reads an extended-length 255-run, adding it to *len. Fails on truncation
// or if *len would exceed `cap` (guards size overflow on hostile input).
bool ReadLengthRun(const uint8_t** p, const uint8_t* end, size_t cap,
                   size_t* len) {
  while (true) {
    if (*p == end) return false;
    const uint8_t b = **p;
    ++*p;
    *len += b;
    if (*len > cap) return false;
    if (b != 255) return true;
  }
}

}  // namespace

bool LzDecompress(std::string_view input, size_t raw_size,
                  std::string* out) {
  // Reject a raw size the input cannot produce before allocating for it:
  // a forged size must not turn into a huge allocation.
  if (raw_size > 0 && (raw_size - 1) / kMaxExpansion >= input.size()) {
    return false;
  }
  const size_t base_size = out->size();
  out->resize(base_size + raw_size);
  char* const dst = out->data() + base_size;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(input.data());
  const uint8_t* end = p + input.size();
  size_t produced = 0;
  bool ok = true;
  while (true) {
    if (p == end) break;  // valid only if produced == raw_size (checked below)
    const uint8_t token = *p++;
    size_t lit_len = token >> 4;
    if (lit_len == 15 &&
        !ReadLengthRun(&p, end, raw_size - produced, &lit_len)) {
      ok = false;
      break;
    }
    if (lit_len > static_cast<size_t>(end - p) ||
        produced + lit_len > raw_size) {
      ok = false;
      break;
    }
    if (lit_len > 0) std::memcpy(dst + produced, p, lit_len);
    p += lit_len;
    produced += lit_len;
    if (p == end) break;  // stream-final literals-only sequence
    if (end - p < 2) {
      ok = false;
      break;
    }
    const size_t offset =
        static_cast<size_t>(p[0]) | (static_cast<size_t>(p[1]) << 8);
    p += 2;
    size_t match_len = (token & 0xf) + kMinMatch;
    if ((token & 0xf) == 15 &&
        !ReadLengthRun(&p, end, raw_size, &match_len)) {
      ok = false;
      break;
    }
    if (offset == 0 || offset > produced ||
        produced + match_len > raw_size) {
      ok = false;
      break;
    }
    char* const to = dst + produced;
    const char* from = to - offset;
    if (offset >= match_len) {
      std::memcpy(to, from, match_len);
    } else {
      // Overlapping match: a byte-wise copy replicates the repeated
      // pattern, as in every LZ77 family codec.
      for (size_t j = 0; j < match_len; ++j) to[j] = from[j];
    }
    produced += match_len;
  }
  if (!ok || produced != raw_size) {
    out->resize(base_size);
    return false;
  }
  return true;
}

}  // namespace onepass
