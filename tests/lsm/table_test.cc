#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "lsm/block.h"
#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = "/tmp/bloomrf_table_test_" + dir_;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(TableTest, BuildAndReadBack) {
  auto policy = NewBloomPolicy(10.0);
  TableBuilder builder(policy.get(), 4096);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 10000; k += 3) {
    builder.Add(k, MakeValue(k, 64));
    keys.push_back(k);
  }
  TableBuildStats build_stats;
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", &build_stats));
  EXPECT_EQ(build_stats.num_entries, keys.size());
  EXPECT_GT(build_stats.filter_block_bytes, 0u);

  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", policy.get(), &stats);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->min_key(), 0u);
  EXPECT_EQ(reader->max_key(), keys.back());

  std::string value;
  for (uint64_t k : keys) {
    ASSERT_TRUE(reader->Get(k, &value, &stats)) << k;
    EXPECT_EQ(value, MakeValue(k, 64));
  }
  // Absent keys (between the stride) are mostly filtered.
  stats.Reset();
  for (uint64_t k = 1; k < 10000; k += 3) {
    EXPECT_FALSE(reader->Get(k, &value, &stats));
  }
  EXPECT_GT(stats.total_filter_true_negatives(), stats.filter_probes / 2);
}

TEST_F(TableTest, RangeScanHonoursFilter) {
  auto policy = NewBloomRFPolicy(18.0, 1e6);
  TableBuilder builder(policy.get(), 1024);
  // Keys clustered in [1e9, 1e9 + 1e6].
  for (uint64_t k = 0; k < 5000; ++k) {
    builder.Add(1000000000 + k * 200, "v");
  }
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", policy.get(), &stats);
  ASSERT_NE(reader, nullptr);

  // The filter probe (one-range RangeMultiProbe), then the block scan
  // on a "maybe" — the two halves of a Db range scan. False when the
  // filter excluded the range.
  auto probe_and_scan = [&](uint64_t lo, uint64_t hi,
                            std::vector<ScanEntry>* out) {
    bool may_match = false;
    reader->RangeMultiProbe({&lo, 1}, {&hi, 1}, &may_match, &stats);
    if (may_match) reader->ScanBlocks(lo, hi, 100, out, &stats);
    return may_match;
  };
  std::vector<ScanEntry> out;
  // In-cluster range finds entries.
  ASSERT_TRUE(probe_and_scan(1000000000, 1000002000, &out));
  EXPECT_EQ(out.size(), 11u);  // keys 0..2000 step 200
  // Far-away ranges (distant prefix paths): the filter excludes the
  // vast majority without I/O. Probes land near 2^60, far from the
  // cluster at ~2^30, so even upper layers discriminate.
  stats.Reset();
  uint64_t excluded = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    out.clear();
    uint64_t lo = (uint64_t{1} << 60) + i * 1000000000ULL;
    if (!probe_and_scan(lo, lo + 995, &out)) {
      ++excluded;
      EXPECT_TRUE(out.empty());
    }
  }
  EXPECT_GE(excluded, 15u);
  EXPECT_EQ(stats.total_filter_true_negatives(), excluded);
  // Negative probes read no blocks; only the (rare) positives may.
  EXPECT_LE(stats.blocks_read, 20u - excluded);
}

TEST_F(TableTest, NullPolicyMeansNoFilter) {
  TableBuilder builder(nullptr, 4096);
  builder.Add(1, "a");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  std::string value;
  EXPECT_TRUE(reader->Get(1, &value, &stats));
  EXPECT_EQ(stats.filter_probes, 0u);
}

// A table truncated under an open reader: the failed pread of a lost
// block must leave a trace in last_error(), as a CRC mismatch does.
TEST_F(TableTest, FailedBlockReadSetsLastError) {
  TableBuilder builder(nullptr, 4096);
  for (uint64_t k = 0; k < 2000; ++k) builder.Add(k, MakeValue(k, 64));
  const std::string path = dir_ + "/t.sst";
  ASSERT_TRUE(builder.WriteTo(path, nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(path, nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(stats.last_error().empty());

  std::filesystem::resize_file(path, 4096);
  std::string value;
  EXPECT_NE(reader->Find(1999, &value, &stats), Lookup::kHit);
  EXPECT_EQ(stats.last_error(), "sst: block read failed in " + path);
  EXPECT_EQ(stats.block_crc_errors.load(), 0u);
}

// A one-block table (keys 5, 10, 15; no filter) written by hand with
// the footer of format `version`: v3 is the current layout; v2 (48-byte
// footer, magic ...1e52) and v1 (40-byte footer, magic ...1e5, no
// CRCs) are layouts earlier builds wrote, which no longer open.
std::string BuildTableBytes(int version) {
  BlockBuilder block;
  block.Add(5, "five");
  block.Add(10, "ten");
  block.Add(15, "fifteen");
  std::string payload = block.Finish();

  std::string file = payload;
  if (version >= 2) PutFixed32(&file, Crc32c(payload));
  std::string index;
  PutFixed64(&index, 15);              // last key
  PutFixed64(&index, 0);               // block offset
  PutFixed64(&index, payload.size());  // payload size (CRC excluded)
  const uint64_t index_off = file.size();
  file += index;

  PutFixed64(&file, index_off);
  PutFixed64(&file, index.size());
  PutFixed64(&file, file.size());  // filter_off (degenerate: empty)
  PutFixed64(&file, 0);            // filter_size
  if (version == 3) PutFixed64(&file, 0);  // num_tombstones
  if (version >= 2) {
    PutFixed32(&file, Crc32c(index));
    PutFixed32(&file, Crc32c(std::string_view()));
  }
  const uint64_t magic[] = {0xb100f54b1e5ULL, 0xb100f54b1e52ULL,
                            TableBuilder::kMagicV3};
  PutFixed64(&file, magic[version - 1]);
  return file;
}

TEST_F(TableTest, OpenRejectsCorruptFile) {
  std::FILE* f = std::fopen((dir_ + "/bad.sst").c_str(), "wb");
  std::fputs("this is not an sst file at all, way too short-ish", f);
  std::fclose(f);
  LsmStats stats;
  EXPECT_EQ(TableReader::Open(dir_ + "/bad.sst", nullptr, &stats), nullptr);
  EXPECT_EQ(TableReader::Open(dir_ + "/missing.sst", nullptr, &stats),
            nullptr);

  // The hand-built table opens with the v3 footer and is rejected with
  // a v1 or v2 one.
  for (int version : {1, 2, 3}) {
    SCOPED_TRACE("format v" + std::to_string(version));
    const std::string path = dir_ + "/v" + std::to_string(version) + ".sst";
    {
      std::ofstream out(path, std::ios::binary);
      const std::string bytes = BuildTableBytes(version);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto reader = TableReader::Open(path, nullptr, &stats);
    if (version < 3) {
      EXPECT_EQ(reader, nullptr);
      continue;
    }
    ASSERT_NE(reader, nullptr);
    std::string value;
    EXPECT_EQ(reader->Find(10, &value, &stats), Lookup::kHit);
    EXPECT_EQ(value, "ten");
  }
}

TEST_F(TableTest, DeserializationTimeTracked) {
  auto policy = NewBloomRFPolicy(14.0, 1e4);
  TableBuilder builder(policy.get(), 4096);
  for (uint64_t k = 0; k < 50000; ++k) builder.Add(k * 977, "v");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", policy.get(), &stats);
  ASSERT_NE(reader, nullptr);
  EXPECT_GT(stats.deser_nanos, 0u);
  EXPECT_GT(reader->filter_memory_bits(), 0u);
}

}  // namespace
}  // namespace bloomrf
