#include "lsm/db.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "tests/test_util.h"
#include "workload/key_generator.h"
#include "workload/query_generator.h"

namespace bloomrf {
namespace {

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_db_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Db MakeDb(std::shared_ptr<FilterPolicy> policy,
            uint64_t memtable_bytes = 1 << 20) {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = memtable_bytes;
    return Db(options);
  }

  std::string dir_;
};

TEST_F(DbTest, PutGetThroughMemtable) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6));
  ASSERT_TRUE(db.Put(42, "answer"));
  std::string value;
  ASSERT_TRUE(db.Get(42, &value));
  EXPECT_EQ(value, "answer");
  EXPECT_FALSE(db.Get(43, &value));
  EXPECT_EQ(db.num_tables(), 0u);  // still in memtable
}

TEST_F(DbTest, FlushAndGetFromSst) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6));
  for (uint64_t k = 0; k < 1000; ++k) db.Put(k * 7, MakeValue(k, 32));
  ASSERT_TRUE(db.Flush());
  EXPECT_EQ(db.num_tables(), 1u);
  std::string value;
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(db.Get(k * 7, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 32));
  }
  EXPECT_FALSE(db.Get(3, &value));
}

TEST_F(DbTest, AutoFlushCreatesMultipleSsts) {
  Db db = MakeDb(NewBloomPolicy(10.0), /*memtable_bytes=*/32 << 10);
  Dataset data = MakeDataset(20000, Distribution::kUniform, 71);
  for (uint64_t k : data.keys) db.Put(k, "0123456789abcdef");
  db.Flush();
  EXPECT_GT(db.num_tables(), 3u);
  std::string value;
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.Get(data.keys[i], &value)) << i;
  }
}

TEST_F(DbTest, NewestValueWins) {
  Db db = MakeDb(NewBloomPolicy(10.0));
  db.Put(1, "old");
  db.Flush();
  db.Put(1, "new");
  std::string value;
  ASSERT_TRUE(db.Get(1, &value));
  EXPECT_EQ(value, "new");
  db.Flush();
  ASSERT_TRUE(db.Get(1, &value));
  EXPECT_EQ(value, "new");
  auto rows = db.RangeScan(0, 10);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "new");
}

TEST_F(DbTest, RangeScanMergesMemtableAndSsts) {
  Db db = MakeDb(NewBloomRFPolicy(18.0, 1e6));
  for (uint64_t k = 0; k < 100; ++k) db.Put(k * 10, "sst");
  db.Flush();
  for (uint64_t k = 0; k < 100; ++k) db.Put(k * 10 + 5, "mem");
  auto rows = db.RangeScan(0, 99);
  ASSERT_EQ(rows.size(), 20u);  // 0,5,10,...,95
  EXPECT_EQ(rows[0].first, 0u);
  EXPECT_EQ(rows[1].first, 5u);
  EXPECT_EQ(rows[1].second, "mem");
}

TEST_F(DbTest, RangeScanLimit) {
  Db db = MakeDb(nullptr);
  for (uint64_t k = 0; k < 1000; ++k) db.Put(k, "v");
  db.Flush();
  auto rows = db.RangeScan(0, 999, 17);
  EXPECT_EQ(rows.size(), 17u);
  EXPECT_EQ(rows.back().first, 16u);
}

TEST_F(DbTest, FiltersEliminateIoOnEmptyQueries) {
  Db db = MakeDb(NewBloomRFPolicy(20.0, 1e6), 64 << 10);
  Dataset data = MakeDataset(30000, Distribution::kUniform, 72);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 64));
  db.Flush();
  ASSERT_GT(db.num_tables(), 1u);

  QueryWorkload workload =
      MakeQueryWorkload(data, 2000, 1000, Distribution::kUniform, 73);
  db.ResetStats();
  uint64_t fp = 0, empties = 0;
  for (const RangeQuery& q : workload.range_queries) {
    bool answer = db.RangeMayMatch(q.lo, q.hi);
    if (q.empty) {
      ++empties;
      if (answer) ++fp;
    } else {
      EXPECT_TRUE(answer);  // no false negatives end to end
    }
  }
  ASSERT_GT(empties, 0u);
  EXPECT_LT(static_cast<double>(fp) / static_cast<double>(empties), 0.08);
  const LsmStats& stats = db.stats();
  EXPECT_GT(stats.total_filter_true_negatives(), 0u);
  // Block reads only on (rare) positives.
  EXPECT_LT(stats.blocks_read, stats.filter_probes / 4);
}

TEST_F(DbTest, PointQueriesNoFalseNegativesAcrossManySsts) {
  Db db = MakeDb(NewBloomPolicy(12.0), 16 << 10);
  Dataset data = MakeDataset(10000, Distribution::kNormal, 74);
  for (uint64_t k : data.keys) db.Put(k, "x");
  db.Flush();
  std::string value;
  for (uint64_t k : data.keys) ASSERT_TRUE(db.Get(k, &value));
}

TEST_F(DbTest, FlushStatsAccumulate) {
  Db db = MakeDb(NewSurfPolicy(/*suffix_type=*/1, 8), 8 << 10);
  Dataset data = MakeDataset(5000, Distribution::kUniform, 75);
  for (uint64_t k : data.keys) db.Put(k, "0123456789");
  db.Flush();
  EXPECT_EQ(db.flush_stats().sst_files, db.num_tables());
  EXPECT_GT(db.flush_stats().filter_create_seconds, 0.0);
  EXPECT_GT(db.flush_stats().filter_block_bytes, 0u);
}

TEST_F(DbTest, FlushFailureKeepsDataQueryable) {
  // Failure injection: an unwritable directory makes every flush fail;
  // the memtable must keep serving all data (no silent loss).
  DbOptions options;
  options.dir = "/proc/definitely/not/writable/db";
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 1 << 20;
  Db db(options);
  for (uint64_t k = 0; k < 500; ++k) db.Put(k, "payload");
  EXPECT_FALSE(db.Flush());
  EXPECT_EQ(db.num_tables(), 0u);
  std::string value;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, "payload");
  }
  auto rows = db.RangeScan(0, 499);
  EXPECT_EQ(rows.size(), 500u);
}

TEST_F(DbTest, FailedFlushRetriesInSealOrder) {
  // Regression: a sealed memtable whose flush failed must not be
  // overtaken by a later seal's SST — tables must install in seal
  // order even across failures, or the stuck (older) sealed memtable
  // would shadow the newer table's values on reads. Each drain call
  // retries the failed flush until the "disk" heals.
  FaultInjectionEnv fenv;
  fenv.FailAlways("sst");
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.memtable_bytes = 16 << 10;
  options.env = &fenv;
  Db db(options);

  ASSERT_TRUE(db.Put(7, "v1"));
  EXPECT_FALSE(db.Flush());  // seal #1 fails, stays queued + readable
  EXPECT_EQ(db.num_tables(), 0u);
  std::string value;
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "v1");

  // A Put-only writer must hear about the pending failure: the next
  // Put that seals (crosses the budget) reports false.
  ASSERT_TRUE(db.Put(7, "v2"));  // newer value, below budget: fine
  bool sealing_put_failed = false;
  for (uint64_t k = 100; k < 1000 && !sealing_put_failed; ++k) {
    sealing_put_failed = !db.Put(k, std::string(64, 'p'));
  }
  EXPECT_TRUE(sealing_put_failed);

  EXPECT_FALSE(db.Flush());  // still failing; both seals queued
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "v2");  // newest sealed memtable wins

  fenv.HealAll();  // disk heals: next drain flushes both, oldest first
  EXPECT_TRUE(db.Flush());
  EXPECT_GE(db.num_tables(), 2u);
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "v2");  // newer SST still wins after install
  auto rows = db.RangeScan(0, 99);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "v2");
}

TEST_F(DbTest, WorksWithEveryPolicy) {
  // Every registered backend runs through the same generic registry
  // policy; one legacy shim covers the parameter-carrying spellings.
  std::vector<std::shared_ptr<FilterPolicy>> policies;
  policies.push_back(NewBloomRFPolicy(18.0, 1e4));
  for (const std::string& name : FilterRegistry::Instance().Names()) {
    policies.push_back(NewRegistryPolicy(name));
  }
  policies.push_back(nullptr);
  int idx = 0;
  for (auto& policy : policies) {
    std::string subdir = dir_ + "/p" + std::to_string(idx++);
    DbOptions options;
    options.dir = subdir;
    options.filter_policy = policy;
    options.memtable_bytes = 1 << 20;
    Db db(options);
    Dataset data = MakeDataset(3000, Distribution::kUniform, 76);
    for (uint64_t k : data.keys) db.Put(k, "v");
    db.Flush();
    std::string value;
    for (uint64_t k : data.keys) {
      ASSERT_TRUE(db.Get(k, &value)) << "policy " << idx;
    }
    for (uint64_t k : data.sorted_keys) {
      ASSERT_TRUE(db.RangeMayMatch(k, k + 100 > k ? k + 100 : k))
          << "policy " << idx;
    }
  }
}

}  // namespace
}  // namespace bloomrf
