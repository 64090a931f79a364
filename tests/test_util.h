// Shared helpers for the test suite: deterministic key sets,
// ground-truth range emptiness, delete batches and SST corruption.

#ifndef BLOOMRF_TESTS_TEST_UTIL_H_
#define BLOOMRF_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "lsm/wal.h"
#include "util/coding.h"
#include "util/random.h"

namespace bloomrf::testing {

inline std::set<uint64_t> RandomKeySet(size_t n, uint64_t seed,
                                       uint64_t domain = 0) {
  Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < n) {
    keys.insert(domain == 0 ? rng.Next() : rng.Uniform(domain));
  }
  return keys;
}

inline bool GroundTruthRange(const std::set<uint64_t>& keys, uint64_t lo,
                             uint64_t hi) {
  if (lo > hi) return false;
  auto it = keys.lower_bound(lo);
  return it != keys.end() && *it <= hi;
}

/// Saturating interval of `size` elements starting at lo.
inline uint64_t RangeEnd(uint64_t lo, uint64_t size) {
  if (size == 0) size = 1;
  return lo > UINT64_MAX - (size - 1) ? UINT64_MAX : lo + (size - 1);
}

/// A WriteBatch that deletes each of `keys`, in order.
inline std::vector<KV> Deletes(const std::vector<uint64_t>& keys) {
  std::vector<KV> batch;
  batch.reserve(keys.size());
  for (uint64_t key : keys) batch.push_back({key, {}, /*is_delete=*/true});
  return batch;
}

/// Flips one byte in the middle of `path`'s data-block region (v3
/// footer: the index offset is the first footer field, and the data
/// blocks fill [0, index offset)). The table still opens; reads of the
/// block fail its CRC.
inline void CorruptMiddleDataBlock(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  char footer[56];
  ASSERT_EQ(std::fseek(f, -56, SEEK_END), 0);
  ASSERT_EQ(std::fread(footer, 1, sizeof(footer), f), sizeof(footer));
  const long middle = static_cast<long>(DecodeFixed64(footer) / 2);
  ASSERT_EQ(std::fseek(f, middle, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, middle, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);
}

}  // namespace bloomrf::testing

#endif  // BLOOMRF_TESTS_TEST_UTIL_H_
