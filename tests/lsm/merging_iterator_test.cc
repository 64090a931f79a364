// MergingIterator: the one newest-wins merge behind Db::RangeScan,
// Db::ScanRange and compaction. Unit cases over memtable and table
// cursors, then the compaction abort path on an unreadable input.

#include "lsm/merging_iterator.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/table_builder.h"
#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

struct Row {
  uint64_t key;
  std::string value;
  bool tombstone;
  bool operator==(const Row&) const = default;
};

/// Drains `merge` into rows, asserting each key comes out once and in
/// ascending order.
std::vector<Row> Drain(MergingIterator& merge) {
  std::vector<Row> rows;
  for (; merge.Valid(); merge.Next()) {
    if (!rows.empty()) {
      EXPECT_LT(rows.back().key, merge.key());
    }
    rows.push_back(
        {merge.key(), std::string(merge.value()), merge.tombstone()});
  }
  return rows;
}

class MergingIteratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_merging_iterator_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `rows` (sorted) into an SST with small blocks and opens it.
  std::unique_ptr<TableReader> MakeTable(const std::string& name,
                                         const std::vector<Row>& rows) {
    TableBuilder builder(nullptr, 128);
    for (const Row& r : rows) builder.Add(r.key, r.value, r.tombstone);
    const std::string path = dir_ + "/" + name;
    EXPECT_TRUE(builder.WriteTo(path, nullptr));
    return TableReader::Open(path, nullptr, &stats_);
  }

  std::string dir_;
  LsmStats stats_;
};

TEST_F(MergingIteratorTest, TiesGoToTheNewestSource) {
  MemTable older, newer;
  older.Put(1, "old1");
  older.Put(2, "old2");
  newer.Put(2, "new2");
  newer.Put(3, "new3");

  MergingIterator merge;
  merge.Add(MemTable::Iterator(newer, 0));
  merge.Add(MemTable::Iterator(older, 0));
  EXPECT_EQ(Drain(merge), (std::vector<Row>{{1, "old1", false},
                                            {2, "new2", false},
                                            {3, "new3", false}}));
  EXPECT_TRUE(merge.ok());

  // Rank is add order, not anything about the sources themselves.
  MergingIterator reversed;
  reversed.Add(MemTable::Iterator(older, 0));
  reversed.Add(MemTable::Iterator(newer, 0));
  EXPECT_EQ(Drain(reversed)[1], (Row{2, "old2", false}));
}

TEST_F(MergingIteratorTest, TombstonesAreSurfacedAndShadowOlderValues) {
  MemTable older, newer;
  for (uint64_t k = 0; k < 6; ++k) older.Put(k, "v" + std::to_string(k));
  newer.Delete(2);
  newer.Delete(4);
  newer.Delete(9);  // deletes a key no older source holds

  MergingIterator merge;
  merge.Add(MemTable::Iterator(newer, 0));
  merge.Add(MemTable::Iterator(older, 0));
  EXPECT_EQ(Drain(merge), (std::vector<Row>{{0, "v0", false},
                                            {1, "v1", false},
                                            {2, "", true},
                                            {3, "v3", false},
                                            {4, "", true},
                                            {5, "v5", false},
                                            {9, "", true}}));
}

TEST_F(MergingIteratorTest, EmptyAndExhaustedSources) {
  MergingIterator none;
  EXPECT_FALSE(none.Valid());
  EXPECT_TRUE(none.ok());

  MemTable empty, short_source, long_source;
  short_source.Put(5, "s5");
  for (uint64_t k = 0; k < 10; ++k) long_source.Put(k * 2, "l");
  auto table = MakeTable("t.sst", {{100, "t100", false}});
  ASSERT_NE(table, nullptr);

  MergingIterator merge;
  merge.Add(MemTable::Iterator(empty, 0));
  merge.Add(MemTable::Iterator(short_source, 0));
  // Positioned past the table's last key: exhausted from the start.
  merge.Add(TableReader::Iterator(*table, &stats_, 101, /*use_cache=*/true));
  merge.Add(MemTable::Iterator(long_source, 3));
  std::vector<uint64_t> keys;
  for (const Row& r : Drain(merge)) keys.push_back(r.key);
  // The short source runs dry after 5; the long one carries on alone.
  EXPECT_EQ(keys, (std::vector<uint64_t>{4, 5, 6, 8, 10, 12, 14, 16, 18}));
  EXPECT_TRUE(merge.ok());
  merge.Next();  // stepping an exhausted merge is harmless
  EXPECT_FALSE(merge.Valid());
}

TEST_F(MergingIteratorTest, MixesMemtableAndTableCursors) {
  // Newest to oldest: memtable, newer table, older table. Every source
  // overwrites or deletes part of the ones below it.
  std::vector<Row> old_rows, new_rows;
  for (uint64_t k = 0; k < 300; k += 2) {
    old_rows.push_back({k, "old" + std::to_string(k), false});
  }
  for (uint64_t k = 0; k < 300; k += 3) {
    new_rows.push_back({k, k % 2 == 0 ? "" : "new", k % 2 == 0});
  }
  auto older = MakeTable("old.sst", old_rows);
  auto newer = MakeTable("new.sst", new_rows);
  ASSERT_NE(older, nullptr);
  ASSERT_NE(newer, nullptr);
  MemTable mem;
  std::map<uint64_t, Row> model;
  for (const Row& r : old_rows) model[r.key] = r;
  for (const Row& r : new_rows) model[r.key] = r;
  for (uint64_t k = 0; k < 300; k += 5) {
    if (k % 10 == 0) {
      mem.Delete(k);
      model[k] = {k, "", true};
    } else {
      mem.Put(k, "mem");
      model[k] = {k, "mem", false};
    }
  }

  for (bool use_cache : {true, false}) {
    for (uint64_t start : {0, 1, 150, 299, 300}) {
      SCOPED_TRACE(std::to_string(start) + (use_cache ? " cached" : ""));
      MergingIterator merge;
      merge.Add(MemTable::Iterator(mem, start));
      merge.Add(TableReader::Iterator(*newer, &stats_, start, use_cache));
      merge.Add(TableReader::Iterator(*older, &stats_, start, use_cache));
      std::vector<Row> expected;
      for (auto it = model.lower_bound(start); it != model.end(); ++it) {
        expected.push_back(it->second);
      }
      EXPECT_EQ(Drain(merge), expected);
      EXPECT_TRUE(merge.ok());
    }
  }
}

std::set<std::string> SstFiles(const std::string& dir) {
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sst") {
      files.insert(entry.path().filename().string());
    }
  }
  return files;
}

TEST_F(MergingIteratorTest, CompactionAbortsOnUnreadableInput) {
  DbOptions options;
  options.dir = dir_ + "/db";
  options.filter_policy = NewBloomPolicy(10.0);
  options.block_size = 256;
  // Tiny output target: the merge finishes several output files before
  // it reaches the corrupt block, so the abort has files to clean up.
  options.level_base_bytes = 16 << 10;
  Db db(options);
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(db.Put(k, MakeValue(k, 64)));
  ASSERT_TRUE(db.Flush());
  const std::set<std::string> older_sst = SstFiles(options.dir);
  ASSERT_EQ(older_sst.size(), 1u);
  // A newer table overwrites every key, so every Get is answered
  // before the walk reaches the older (about to be corrupt) table.
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(db.Put(k, "newer"));
  ASSERT_TRUE(db.Flush());
  ASSERT_EQ(db.num_tables(), 2u);
  ASSERT_NO_FATAL_FAILURE(testing::CorruptMiddleDataBlock(
      options.dir + "/" + *older_sst.begin()));
  const std::set<std::string> before = SstFiles(options.dir);

  EXPECT_FALSE(db.CompactAll());
  EXPECT_GE(db.stats().compaction_failures.load(), 1u);
  EXPECT_EQ(db.stats().compactions.load(), 0u);
  EXPECT_NE(db.stats().last_error(), "");
  // The inputs stay published and no output file is left behind.
  EXPECT_EQ(db.level_table_counts()[0], 2u);
  EXPECT_EQ(db.num_tables(), 2u);
  EXPECT_EQ(SstFiles(options.dir), before);
  std::string value;
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    ASSERT_EQ(value, "newer") << k;
  }
}

}  // namespace
}  // namespace bloomrf
