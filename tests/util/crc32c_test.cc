// Crc32c must give the RFC 3720 check values on every dispatch path,
// the hardware path must equal software slicing-by-8 for every length
// and misalignment, and a CRC must chain across any split of its input.

#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/random.h"
#include "util/simd.h"

namespace bloomrf {
namespace {

// Restores the startup dispatch level when a test ends.
struct LevelGuard {
  ~LevelGuard() { ClearSimdLevelForTesting(); }
};

// The level at which Crc32c takes the hardware path, or kScalar when
// this machine has none. SetSimdLevelForTesting ignores
// BLOOMRF_FORCE_SCALAR, so the comparison below still runs under it.
SimdLevel HardwareLevel() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("sse4.2")) return DetectSimdLevel();
#endif
  return SimdLevel::kScalar;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

TEST(Crc32cTest, Rfc3720VectorsOnEveryPath) {
  LevelGuard guard;
  std::string zeros(32, '\0'), ones(32, '\xff'), ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  for (SimdLevel level : {SimdLevel::kScalar, HardwareLevel()}) {
    SCOPED_TRACE(SimdLevelName(level));
    SetSimdLevelForTesting(level);
    EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
    EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
    EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
    EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
    EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  }
}

TEST(Crc32cTest, HardwareMatchesSlicing8AtEveryLengthAndMisalignment) {
  const SimdLevel hardware = HardwareLevel();
  if (hardware == SimdLevel::kScalar) {
    GTEST_SKIP() << "no hardware CRC-32C path on this machine";
  }
  LevelGuard guard;
  constexpr size_t kMaxLen = 4200;
  constexpr size_t kMaxShift = 7;
  // Exactly kMaxShift + kMaxLen bytes, so the longest read at the
  // largest misalignment ends at the buffer's last byte.
  const std::vector<uint8_t> buf = RandomBytes(kMaxShift + kMaxLen, 0xc5c);
  for (uint32_t seed : {0u, 0x9e3779b9u}) {
    for (size_t shift = 0; shift <= kMaxShift; ++shift) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const uint8_t* p = buf.data() + shift;
        SetSimdLevelForTesting(SimdLevel::kScalar);
        const uint32_t want = Crc32c(p, len, seed);
        SetSimdLevelForTesting(hardware);
        ASSERT_EQ(Crc32c(p, len, seed), want)
            << "len " << len << " shift " << shift << " seed " << seed;
      }
    }
  }
}

TEST(Crc32cTest, ChainsAcrossSplitsAroundTheInterleaveStride) {
  LevelGuard guard;
  const std::vector<uint8_t> buf = RandomBytes(3000, 0x5eed);
  for (SimdLevel level : {SimdLevel::kScalar, HardwareLevel()}) {
    SCOPED_TRACE(SimdLevelName(level));
    SetSimdLevelForTesting(level);
    const uint32_t whole = Crc32c(buf.data(), buf.size());
    for (size_t split : {0, 1, 7, 8, 255, 256, 257, 511, 512, 767, 768, 769,
                         1535, 1536, 1537, 2999, 3000}) {
      const uint32_t head = Crc32c(buf.data(), split);
      EXPECT_EQ(Crc32c(buf.data() + split, buf.size() - split, head), whole)
          << "split " << split;
    }
  }
}

}  // namespace
}  // namespace bloomrf
