#include "util/crc32c.h"

#include <cstring>

#include "util/simd.h"

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define BLOOMRF_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace bloomrf {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli

// 8 tables of 256 entries: t[0] is the plain byte-at-a-time CRC-32C
// table, t[k] advances a CRC by one byte followed by k zero bytes,
// which lets the slicing-by-8 loop fold 8 input bytes per iteration.
//
// shift256[k][b] is the CRC register whose byte k is b (all other
// bytes zero) after 256 zero bytes have been fed through it. The CRC
// register is linear over GF(2), so XOR-ing the four lookups of a
// register moves it past 256 bytes: that is how the 3-stream hardware
// loop joins a stream's CRC onto the data that follows it.
struct Tables {
  uint32_t t[8][256];
  uint32_t shift256[4][256];
  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i << (8 * k);
        for (int z = 0; z < 256; ++z) crc = (crc >> 8) ^ t[0][crc & 0xff];
        shift256[k][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

// Both kernels take and return the raw register (pre-/post-inversion
// is done once by Crc32c).
uint32_t Slicing8(const uint8_t* p, size_t n, uint32_t crc) {
  const auto& tb = tables();
  while (n >= 8) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[7][crc & 0xff] ^ tb.t[6][(crc >> 8) & 0xff] ^
          tb.t[5][(crc >> 16) & 0xff] ^ tb.t[4][crc >> 24] ^ tb.t[3][p[4]] ^
          tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  }
  return crc;
}

#if defined(BLOOMRF_CRC32C_SSE42)

// Gopal et al., "Fast CRC Computation for iSCSI Polynomial Using CRC32
// Instruction" (Intel, 2011): crc32 has a 3-cycle latency and a
// 1-cycle throughput, so one dependent chain runs at a third of the
// instruction's rate. Three chains over adjacent 256-byte stretches
// fill the pipeline; each 768-byte round then joins them with two
// 256-byte shifts.
constexpr size_t kStride = 256;

uint32_t Shift256(const Tables& tb, uint32_t crc) {
  return tb.shift256[0][crc & 0xff] ^ tb.shift256[1][(crc >> 8) & 0xff] ^
         tb.shift256[2][(crc >> 16) & 0xff] ^ tb.shift256[3][crc >> 24];
}

// Compiled with the target attribute so the library builds without a
// global -msse4.2; Crc32c only calls it after
// __builtin_cpu_supports("sse4.2") confirms the ISA.
__attribute__((target("sse4.2"))) uint32_t Sse42(const uint8_t* p, size_t n,
                                                 uint32_t crc) {
  auto load64 = [](const uint8_t* q) {
    uint64_t v;
    std::memcpy(&v, q, sizeof(v));
    return v;
  };
  const auto& tb = tables();
  for (; n >= 3 * kStride; p += 3 * kStride, n -= 3 * kStride) {
    uint64_t a = crc, b = 0, c = 0;
    for (size_t i = 0; i < kStride; i += 8) {
      a = _mm_crc32_u64(a, load64(p + i));
      b = _mm_crc32_u64(b, load64(p + kStride + i));
      c = _mm_crc32_u64(c, load64(p + 2 * kStride + i));
    }
    crc = Shift256(tb, Shift256(tb, static_cast<uint32_t>(a)) ^
                           static_cast<uint32_t>(b)) ^
          static_cast<uint32_t>(c);
  }
  uint64_t c64 = crc;
  for (; n >= 8; p += 8, n -= 8) c64 = _mm_crc32_u64(c64, load64(p));
  crc = static_cast<uint32_t>(c64);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

bool CpuHasSse42() {
  static const bool kHas = __builtin_cpu_supports("sse4.2");
  return kHas;
}

#endif  // BLOOMRF_CRC32C_SSE42

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if defined(BLOOMRF_CRC32C_SSE42)
  if (ActiveSimdLevel() != SimdLevel::kScalar && CpuHasSse42()) {
    return ~Sse42(p, n, ~crc);
  }
#endif
  return ~Slicing8(p, n, ~crc);
}

}  // namespace bloomrf
