// CRC32C (Castagnoli, polynomial 0x1EDC6F41) over byte strings.
//
// This is the checksum the integrity layer (DESIGN.md §5.2) stamps on
// every framed block of simulated persistent or network data. Two
// implementations compute the same function: a portable software
// slicing-by-8 path and a hardware path using the SSE4.2 / ARMv8 CRC32C
// instruction, selected at runtime through the SIMD tier (DESIGN.md
// §5.8). CRC32C is a fixed mathematical function, so the paths are
// bit-identical by construction; the crc32c_dispatch test cross-checks
// them anyway on fuzzed buffers, lengths, and alignments.

#ifndef ONEPASS_UTIL_CRC32C_H_
#define ONEPASS_UTIL_CRC32C_H_

#include <cstdint>
#include <string_view>

#include "src/util/simd_dispatch.h"

namespace onepass {

// CRC of `data` continuing from `crc` (the CRC of bytes already seen).
// Dispatches on CurrentSimdTier(); override with SetSimdTier to pin a path.
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

// The portable slicing-by-8 implementation (always available).
uint32_t Crc32cExtendScalar(uint32_t crc, std::string_view data);

// The hardware-instruction implementation. Only callable when
// Crc32cHardwareAvailable(); falls back to the scalar path otherwise.
uint32_t Crc32cExtendHardware(uint32_t crc, std::string_view data);

// Whether this build/CPU has a hardware CRC32C path at all.
bool Crc32cHardwareAvailable();

// Explicit-tier variant for callers that resolved a tier once up front.
inline uint32_t Crc32cExtendWithTier(SimdTier tier, uint32_t crc,
                                     std::string_view data) {
  return TierHasHardwareCrc(tier) ? Crc32cExtendHardware(crc, data)
                                  : Crc32cExtendScalar(crc, data);
}

inline uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data);
}

// Stored CRCs are masked (rotate + offset, as in LevelDB) so that a
// stream whose payload itself contains framed data does not trivially
// self-validate after a shifted read.
constexpr uint32_t kCrcMaskDelta = 0xa282ead8u;

inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kCrcMaskDelta;
}

inline uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - kCrcMaskDelta;
  return (rot >> 17) | (rot << 15);
}

}  // namespace onepass

#endif  // ONEPASS_UTIL_CRC32C_H_
