// Byte-level encoding helpers (varint32/64, fixed32/64), RocksDB-style.
//
// Used by KvBuffer and spill-file framing so that intermediate data sizes
// are honest byte counts rather than object counts.

#ifndef ONEPASS_UTIL_CODING_H_
#define ONEPASS_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace onepass {

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

// Appends v in decimal, left-padded with '0' to at least `min_digits`
// digits: the bytes snprintf's "%0*llu" writes, never truncated. Hot
// key formatters call this per record instead of snprintf.
inline void PutDecimal(std::string* dst, uint64_t v, size_t min_digits) {
  char buf[20];  // UINT64_MAX has 20 digits
  char* const end = buf + sizeof(buf);
  char* p = end;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  const size_t digits = static_cast<size_t>(end - p);
  if (digits < min_digits) dst->append(min_digits - digits, '0');
  dst->append(p, digits);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Appends v as a LEB128 varint (1-5 bytes for 32-bit).
void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

// Writes v as a LEB128 varint at dst, which has room for 10 bytes, and
// returns the byte after it.
char* EncodeVarint64(char* dst, uint64_t v);

// Parses a varint from [p, limit). Returns the byte after the varint, or
// nullptr on truncation/overflow.
const char* GetVarint32Ptr(const char* p, const char* limit, uint32_t* value);
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);

// Parses a varint from the front of *input, advancing it. Returns false on
// malformed input.
bool GetVarint32(std::string_view* input, uint32_t* value);
bool GetVarint64(std::string_view* input, uint64_t* value);

// Number of bytes PutVarint32/64 would write.
int VarintLength(uint64_t v);

// Appends a length-prefixed string.
void PutLengthPrefixed(std::string* dst, std::string_view value);

// Parses a length-prefixed string from the front of *input.
bool GetLengthPrefixed(std::string_view* input, std::string_view* result);

}  // namespace onepass

#endif  // ONEPASS_UTIL_CODING_H_
