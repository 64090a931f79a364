// Runtime-dispatched SIMD word-test kernels for the planned probe
// engine.
//
// The batch probe paths are memory-planned (hash -> prefetch -> probe,
// see util/prefetch.h); this header vectorizes the probe pass itself:
// the fundamental operation of every Bloom-style filter in the library
// is "load a 64-bit block and test it against a mask", and the kernels
// below run 4 or 8 of those tests per call across independent keys.
//
// Dispatch is decided once per process, at the first kernel call:
//   - x86-64 with AVX2: 4-lane 64-bit gather + vectorized mask test
//   - AArch64:          NEON 2x64-bit lanes (no gather; vector test)
//   - anything else:    portable scalar loop
// Crc32c (util/crc32c.h) follows the same level: SSE4.2 crc32 on x86-64
// unless the level is kScalar, software slicing-by-8 otherwise.
// The environment variable BLOOMRF_FORCE_SCALAR=1 forces the scalar
// kernels regardless of ISA; tests flip levels at runtime with
// SetSimdLevelForTesting to assert that every dispatch level produces
// bit-identical answers.
//
// All kernels are pure functions of the gathered memory words: a batch
// probe built on them answers exactly like the scalar loop it
// replaces, for every dispatch level.

#ifndef BLOOMRF_UTIL_SIMD_H_
#define BLOOMRF_UTIL_SIMD_H_

#include <cstdint>

namespace bloomrf {

enum class SimdLevel : uint8_t { kScalar = 0, kNeon = 1, kAvx2 = 2 };

/// ISA the kernels dispatch to (cached after the first call; honors
/// BLOOMRF_FORCE_SCALAR=1 and any test override).
SimdLevel ActiveSimdLevel();

/// What the hardware supports, ignoring environment and overrides.
SimdLevel DetectSimdLevel();

/// "avx2" | "neon" | "scalar" — the `simd` field of bench JSON output.
const char* SimdLevelName(SimdLevel level);

/// Test hooks: force a dispatch level process-wide / return to the
/// detected one. Not thread-safe against concurrent kernel calls; for
/// single-threaded test use only. Forcing a level the hardware lacks
/// (e.g. kAvx2 on ARM) silently falls back to scalar.
void SetSimdLevelForTesting(SimdLevel level);
void ClearSimdLevelForTesting();

/// 4-lane gather-test: returns a bitmask whose bit i (i in [0, 4)) is
/// set iff (base[idx[i]] & mask[i]) != 0. Lanes with mask == 0 always
/// report 0, so callers can pad partial groups with {idx = 0, mask = 0}
/// (idx must still be in bounds — 0 always is for non-empty arrays).
uint32_t GatherTestNonzero4(const uint64_t* base, const uint64_t* idx,
                            const uint64_t* mask);

/// 8-lane variant of GatherTestNonzero4 (bits 0..7).
uint32_t GatherTestNonzero8(const uint64_t* base, const uint64_t* idx,
                            const uint64_t* mask);

/// SWAR 16-bit lane equality: true iff any of the four 16-bit lanes of
/// `lanes` equals `v`. ISA-independent (SIMD-within-a-register); the
/// cuckoo batch kernel tests a whole 4-slot bucket per call. `v` must
/// be nonzero when 0 marks empty slots the caller wants excluded —
/// callers relying on that property pass validated fingerprints.
inline bool AnyLaneEq16(uint64_t lanes, uint16_t v) {
  constexpr uint64_t kLow = 0x0001000100010001ULL;
  constexpr uint64_t kHigh = 0x8000800080008000ULL;
  uint64_t x = lanes ^ (kLow * v);  // lane == v  <=>  lane of x == 0
  return ((x - kLow) & ~x & kHigh) != 0;
}

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_SIMD_H_
