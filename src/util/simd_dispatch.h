// Runtime SIMD tier selection for the batch data plane (DESIGN.md §5.8).
//
// The vectorized inner loops — CRC32C framing, batch hash mixing — each
// carry a portable scalar implementation plus optional hardware paths
// (SSE4.2 / AVX2 on x86-64, the CRC32 extension on ARMv8). The tier is
// detected once at startup from CPUID/hwcaps and consulted by every
// dispatch site; tests and benches pin it with SetSimdTier to cross-check
// the planes against each other. All tiers produce bit-identical results —
// the tier is purely a speed knob, never a semantics knob — which the
// crc32c_dispatch and batch_hash tests enforce.

#ifndef ONEPASS_UTIL_SIMD_DISPATCH_H_
#define ONEPASS_UTIL_SIMD_DISPATCH_H_

#include <cstdint>
#include <string_view>

namespace onepass {

// Ordered by capability; a CPU supporting tier T supports every lower
// x86 tier too (kAvx2 implies kSse42). kArmCrc is the aarch64 branch.
enum class SimdTier : uint8_t {
  kScalar = 0,  // portable C++ (slicing-by-8 CRC, scalar Mix64)
  kSse42 = 1,   // x86 CRC32 instruction
  kAvx2 = 2,    // x86 CRC32 + 4-lane hash mixing (64-bit multiply from
                // 32x32 products: still faster than scalar imul)
  kAvx512 = 3,  // x86 CRC32 + 8-lane 64-bit hash mixing (vpmullq, DQ+VL)
  kArmCrc = 4,  // ARMv8 CRC32 extension
};

std::string_view SimdTierName(SimdTier tier);

// True if this build/CPU can execute `tier`'s code paths.
bool SimdTierSupported(SimdTier tier);

// Best tier the current CPU supports (kScalar if nothing better).
SimdTier DetectSimdTier();

// The process-wide active tier: DetectSimdTier() unless overridden.
SimdTier CurrentSimdTier();

// Pins the active tier (clamped to a supported one; returns what was
// actually installed). Used by tests and benches to force the scalar
// fallback or a specific hardware path.
SimdTier SetSimdTier(SimdTier tier);

// Whether `tier` carries a hardware CRC32C instruction.
inline bool TierHasHardwareCrc(SimdTier tier) {
  return tier == SimdTier::kSse42 || tier == SimdTier::kAvx2 ||
         tier == SimdTier::kAvx512 || tier == SimdTier::kArmCrc;
}

}  // namespace onepass

#endif  // ONEPASS_UTIL_SIMD_DISPATCH_H_
