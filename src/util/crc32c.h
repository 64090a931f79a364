// CRC-32C (Castagnoli, reflected polynomial 0x82f63b78): the checksum
// of every SST block, index and filter, every WAL record and every
// MANIFEST edit.
//
// Dispatched at run time, with the same result on every path:
//   - x86-64 with SSE4.2: the crc32 instruction, three interleaved
//     streams for inputs of at least 768 bytes (Gopal et al., Intel
//     2011), one stream for shorter inputs and the tail;
//   - anything else: software slicing-by-8.
// The hardware path follows the SIMD dispatch of util/simd.h: it is
// taken unless ActiveSimdLevel() is kScalar, so BLOOMRF_FORCE_SCALAR=1
// or SetSimdLevelForTesting(SimdLevel::kScalar) forces slicing-by-8.

#ifndef BLOOMRF_UTIL_CRC32C_H_
#define BLOOMRF_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bloomrf {

/// CRC-32C of `data[0, n)`, continuing from `crc` (pass 0 to start).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

inline uint32_t Crc32c(std::string_view s, uint32_t crc = 0) {
  return Crc32c(s.data(), s.size(), crc);
}

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_CRC32C_H_
