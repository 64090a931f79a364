// LsmStats and the filter-outcome ledger. The LsmStats cases walk the
// counter lists (BLOOMRF_LSM_STATS_SCALARS / _LEVEL_ARRAYS), so a
// counter added to a list is covered without touching this file.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "lsm/table_reader.h"
#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

using Kind = LsmStats::Kind;

/// Gives every listed counter and level slot a distinct value: 1, 2, …
/// in list order.
void Fill(LsmStats* s) {
  uint64_t v = 1;
#define FILL_SCALAR(name, kind) s->name = v++;
#define FILL_ARRAY(name) \
  for (auto& slot : s->name) slot = v++;
  BLOOMRF_LSM_STATS_SCALARS(FILL_SCALAR)
  BLOOMRF_LSM_STATS_LEVEL_ARRAYS(FILL_ARRAY)
#undef FILL_SCALAR
#undef FILL_ARRAY
}

/// Expects each listed counter and level slot of `s` to equal
/// expected(value Fill gave it, its kind).
template <typename Fn>
void ExpectEach(const LsmStats& s, Fn expected) {
  uint64_t v = 1;
#define CHECK_SCALAR(name, kind)                             \
  EXPECT_EQ(s.name.load(), expected(v, Kind::kind)) << #name; \
  ++v;
#define CHECK_ARRAY(name)                                     \
  for (size_t l = 0; l < LsmStats::kStatsLevels; ++l, ++v) {  \
    EXPECT_EQ(s.name[l].load(), expected(v, Kind::kCounter))  \
        << #name << "[" << l << "]";                          \
  }
  BLOOMRF_LSM_STATS_SCALARS(CHECK_SCALAR)
  BLOOMRF_LSM_STATS_LEVEL_ARRAYS(CHECK_ARRAY)
#undef CHECK_SCALAR
#undef CHECK_ARRAY
}

/// Adds 1 to every listed counter and level slot.
void IncrementAll(LsmStats* s) {
#define INC_SCALAR(name, kind) ++s->name;
#define INC_ARRAY(name) \
  for (auto& slot : s->name) ++slot;
  BLOOMRF_LSM_STATS_SCALARS(INC_SCALAR)
  BLOOMRF_LSM_STATS_LEVEL_ARRAYS(INC_ARRAY)
#undef INC_SCALAR
#undef INC_ARRAY
}

TEST(LsmStatsTest, EveryFieldIsListed) {
  // A counter declared outside the lists would be missed by copy,
  // Accumulate and Reset; the lists must account for the whole struct
  // (plus the last-error string and its mutex).
  size_t counters = 0;
#define COUNT_SCALAR(name, kind) counters += 1;
#define COUNT_ARRAY(name) counters += LsmStats::kStatsLevels;
  BLOOMRF_LSM_STATS_SCALARS(COUNT_SCALAR)
  BLOOMRF_LSM_STATS_LEVEL_ARRAYS(COUNT_ARRAY)
#undef COUNT_SCALAR
#undef COUNT_ARRAY
  EXPECT_EQ(sizeof(LsmStats), counters * sizeof(std::atomic<uint64_t>) +
                                  sizeof(std::mutex) + sizeof(std::string));
}

TEST(LsmStatsTest, CopyAccumulateAndResetCoverEveryListedCounter) {
  LsmStats filled;
  Fill(&filled);
  filled.SetLastError("boom");

  const LsmStats copied(filled);
  ExpectEach(copied, [](uint64_t v, Kind) { return v; });
  EXPECT_EQ(copied.last_error(), "boom");
  LsmStats assigned;
  assigned = filled;
  ExpectEach(assigned, [](uint64_t v, Kind) { return v; });

  assigned.Accumulate(filled);
  ExpectEach(assigned, [](uint64_t v, Kind) { return 2 * v; });

  // Reset zeroes the cumulative counters and keeps the gauges.
  size_t gauges = 0;
  assigned.Reset();
  ExpectEach(assigned, [&](uint64_t v, Kind kind) {
    if (kind == Kind::kGauge) ++gauges;
    return kind == Kind::kGauge ? 2 * v : 0;
  });
  EXPECT_EQ(gauges, 2u);  // tombstones_live, compactions_inflight
  EXPECT_EQ(assigned.last_error(), "");
}

TEST(LsmStatsTest, ResetKeepsCompactionsInflight) {
  LsmStats stats;
  ++stats.compactions_inflight;  // a job starts
  ++stats.compactions;
  stats.Reset();
  EXPECT_EQ(stats.compactions_inflight.load(), 1u);
  EXPECT_EQ(stats.compactions.load(), 0u);
  --stats.compactions_inflight;  // the job's guard: no wrap-around
  EXPECT_EQ(stats.compactions_inflight.load(), 0u);
}

TEST(LsmStatsTest, CopyAndAccumulateBesideConcurrentIncrements) {
  constexpr int kWriters = 4;
  constexpr uint64_t kRounds = 2000;
  LsmStats shared;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    LsmStats rollup;
    uint64_t last_probes = 0;
    while (!done.load(std::memory_order_acquire)) {
      LsmStats snapshot = shared;
      rollup.Accumulate(shared);
      rollup.Accumulate(snapshot);
      // Each counter only grows, so successive snapshots never shrink.
      EXPECT_GE(snapshot.filter_probes.load(), last_probes);
      last_probes = snapshot.filter_probes.load();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t r = 0; r < kRounds; ++r) {
        IncrementAll(&shared);
        if (r % 256 == 0) shared.SetLastError("writer " + std::to_string(w));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  ExpectEach(shared, [](uint64_t, Kind) { return kWriters * kRounds; });
}

class StatsDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_stats_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(StatsDbTest, ResetStatsKeepsTombstonesLive) {
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  Db db(options);
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Put(k, "v"));
  ASSERT_TRUE(db.Flush());
  for (uint64_t k = 0; k < 5; ++k) ASSERT_TRUE(db.Delete(k));
  ASSERT_TRUE(db.Flush());
  for (uint64_t k = 5; k < 10; ++k) ASSERT_TRUE(db.Delete(k));
  ASSERT_TRUE(db.Flush());
  ASSERT_EQ(db.stats().tombstones_live.load(), 10u);
  ASSERT_EQ(db.stats().tombstones_written.load(), 10u);

  db.ResetStats();
  EXPECT_EQ(db.stats().tombstones_live.load(), 10u);  // still in 2 SSTs
  EXPECT_EQ(db.stats().tombstones_written.load(), 0u);
}

TEST_F(StatsDbTest, ShardedTotalStatsIsTheSumOfTheShards) {
  ShardedDbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
  options.num_shards = 4;
  options.memtable_bytes = 16 << 10;
  ShardedDb db(options);
  Dataset data = MakeDataset(4000, Distribution::kUniform, 91);
  for (uint64_t k : data.keys) ASSERT_TRUE(db.Put(k, MakeValue(k, 24)));
  for (size_t i = 0; i < 200; ++i) ASSERT_TRUE(db.Delete(data.keys[i]));
  ASSERT_TRUE(db.Flush());
  std::string value;
  for (size_t i = 0; i < 500; ++i) db.Get(data.keys[i] ^ 0x5555, &value);
  (void)db.MultiGet(std::span<const uint64_t>(data.keys).first(1000));
  std::vector<uint64_t> los, his;
  for (size_t i = 0; i < 100; ++i) {
    los.push_back(data.keys[i * 7] + 1);
    his.push_back(data.keys[i * 7] + 1000);
  }
  (void)db.ScanRange(los, his, 16);

  const LsmStats total = db.TotalStats();
  EXPECT_GT(total.filter_probes.load(), 0u);
  EXPECT_GT(total.tombstones_live.load(), 0u);
#define CHECK_SUM(name, kind)                                        \
  {                                                                  \
    uint64_t sum = 0;                                                \
    for (size_t s = 0; s < db.num_shards(); ++s) {                   \
      sum += db.shard(s).stats().name.load();                        \
    }                                                                \
    EXPECT_EQ(total.name.load(), sum) << #name;                      \
  }
#define CHECK_LEVEL_SUMS(name)                                       \
  for (size_t l = 0; l < LsmStats::kStatsLevels; ++l) {              \
    uint64_t sum = 0;                                                \
    for (size_t s = 0; s < db.num_shards(); ++s) {                   \
      sum += db.shard(s).stats().name[l].load();                     \
    }                                                                \
    EXPECT_EQ(total.name[l].load(), sum) << #name << "[" << l << "]"; \
  }
  BLOOMRF_LSM_STATS_SCALARS(CHECK_SUM)
  BLOOMRF_LSM_STATS_LEVEL_ARRAYS(CHECK_LEVEL_SUMS)
#undef CHECK_SUM
#undef CHECK_LEVEL_SUMS
}

// A block that fails to read tells nothing about the filter: no read
// path may charge it as a false positive (it would inflate the
// measured FPR the planner's distrust multiplier feeds on).
TEST_F(StatsDbTest, UnreadableBlockRecordsNoFilterOutcome) {
  DbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomPolicy(10.0);
  options.block_cache_bytes = 0;  // every read goes to the file
  options.block_size = 1024;
  Db db(options);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 5000; ++k) {
    keys.push_back(k * 16);
    ASSERT_TRUE(db.Put(keys.back(), MakeValue(keys.back(), 32)));
  }
  ASSERT_TRUE(db.Flush());
  ASSERT_EQ(db.num_tables(), 1u);
  std::string sst;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sst") sst = entry.path().string();
  }
  ASSERT_NO_FATAL_FAILURE(testing::CorruptMiddleDataBlock(sst));

  // Every key is present, so no read may record a false positive; the
  // corrupt block must make some reads fail for the check to bite.
  auto expect_no_false_positives = [&](const char* path) {
    const FilterFeedback feedback = db.CollectFilterFeedback();
    const BackendObservation* obs = feedback.Find("bloom");
    ASSERT_NE(obs, nullptr) << path;
    EXPECT_EQ(obs->point_false, 0u) << path;
    EXPECT_EQ(obs->range_false, 0u) << path;
    EXPECT_EQ(db.stats().total_filter_false_positives(), 0u) << path;
  };
  uint64_t crc_errors = db.stats().block_crc_errors.load();
  auto expect_failed_reads = [&](const char* path) {
    EXPECT_GT(db.stats().block_crc_errors.load(), crc_errors) << path;
    crc_errors = db.stats().block_crc_errors.load();
  };

  std::string value;
  size_t failed_gets = 0;
  for (uint64_t k : keys) {
    if (!db.Get(k, &value)) ++failed_gets;
  }
  EXPECT_GT(failed_gets, 0u);
  expect_failed_reads("Get");
  expect_no_false_positives("Get");

  const auto answers = db.MultiGet(keys);
  size_t failed_multiget = 0;
  for (const auto& answer : answers) {
    if (!answer.has_value()) ++failed_multiget;
  }
  EXPECT_EQ(failed_multiget, failed_gets);
  expect_failed_reads("MultiGet");
  expect_no_false_positives("MultiGet");

  std::vector<uint64_t> los, his;
  for (size_t i = 0; i < keys.size(); i += 50) {
    los.push_back(keys[i]);
    his.push_back(keys[i] + 100);
  }
  const auto rows = db.ScanRange(los, his, 16);
  size_t empty_ranges = 0;
  for (const auto& range : rows) {
    if (range.empty()) ++empty_ranges;
  }
  EXPECT_GT(empty_ranges, 0u);
  expect_failed_reads("ScanRange");
  expect_no_false_positives("ScanRange");
}

}  // namespace
}  // namespace bloomrf
