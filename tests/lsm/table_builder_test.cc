// TableBuilder/SST-format boundary tests: block-size edges, oversized
// values, single-entry tables, and index integrity.

#include <gtest/gtest.h>

#include <filesystem>

#include "lsm/table_builder.h"
#include "lsm/table_reader.h"

namespace bloomrf {
namespace {

class TableBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_tb_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(TableBuilderTest, SingleEntryTable) {
  TableBuilder builder(nullptr, 4096);
  builder.Add(42, "answer");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->min_key(), 42u);
  EXPECT_EQ(reader->max_key(), 42u);
  std::string value;
  EXPECT_TRUE(reader->Get(42, &value, &stats));
  EXPECT_EQ(value, "answer");
}

TEST_F(TableBuilderTest, EmptyTableReadable) {
  TableBuilder builder(nullptr, 4096);
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  std::string value;
  EXPECT_FALSE(reader->Get(42, &value, &stats));
  std::vector<ScanEntry> out;
  reader->ScanBlocks(0, UINT64_MAX, 10, &out, &stats);
  EXPECT_TRUE(out.empty());
}

TEST_F(TableBuilderTest, ValueLargerThanBlockSize) {
  TableBuilder builder(nullptr, 512);
  std::string big(10000, 'B');
  builder.Add(1, "small");
  builder.Add(2, big);
  builder.Add(3, "after");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  std::string value;
  ASSERT_TRUE(reader->Get(2, &value, &stats));
  EXPECT_EQ(value, big);
  ASSERT_TRUE(reader->Get(3, &value, &stats));
  EXPECT_EQ(value, "after");
}

TEST_F(TableBuilderTest, ManySmallBlocks) {
  TableBuilder builder(nullptr, 64);  // ~2-3 entries per block
  for (uint64_t k = 0; k < 1000; ++k) builder.Add(k * 2, "v");
  TableBuildStats build_stats;
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", &build_stats));
  EXPECT_EQ(build_stats.num_entries, 1000u);

  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  std::string value;
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(reader->Get(k * 2, &value, &stats)) << k;
    ASSERT_FALSE(reader->Get(k * 2 + 1, &value, &stats)) << k;
  }
  // Scan across many block boundaries.
  std::vector<ScanEntry> out;
  reader->ScanBlocks(500, 700, 1000, &out, &stats);
  EXPECT_EQ(out.size(), 101u);  // 500,502,...,700
}

TEST_F(TableBuilderTest, BoundaryKeysAtBlockEdges) {
  TableBuilder builder(nullptr, 64);
  std::vector<uint64_t> keys = {0, 1, UINT64_MAX - 1, UINT64_MAX};
  for (uint64_t k : keys) builder.Add(k, "x");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  std::string value;
  for (uint64_t k : keys) EXPECT_TRUE(reader->Get(k, &value, &stats)) << k;
  EXPECT_EQ(reader->min_key(), 0u);
  EXPECT_EQ(reader->max_key(), UINT64_MAX);
}

TEST_F(TableBuilderTest, WriteToUnwritablePathFails) {
  TableBuilder builder(nullptr, 4096);
  builder.Add(1, "x");
  EXPECT_FALSE(builder.WriteTo("/proc/nope/t.sst", nullptr));
}

TEST_F(TableBuilderTest, FilterStatsPopulated) {
  auto policy = NewBloomRFPolicy(16.0, 1e4);
  TableBuilder builder(policy.get(), 4096);
  for (uint64_t k = 0; k < 5000; ++k) builder.Add(k * 31, "v");
  TableBuildStats build_stats;
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", &build_stats));
  EXPECT_GT(build_stats.filter_block_bytes, 5000u * 14 / 8);
  EXPECT_GT(build_stats.data_bytes, 0u);
  EXPECT_GE(build_stats.filter_create_seconds, 0.0);
}

}  // namespace
}  // namespace bloomrf
