// The adaptive-filter loop, end to end: mixed-backend trees stay
// readable (every filter block is self-describing), compaction merges
// tables across any backend pair, the AdaptiveFilterPolicy actually
// switches backends when the workload shifts, and the new per-level
// FP/TN counters measure a believable FPR.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

std::string MakeValue(uint64_t k) {
  return "v" + std::to_string(k * 2654435761u % 100000);
}

/// Builds each successive filter with the next backend from `names`
/// (the last name repeats once the list is exhausted) — a deterministic
/// way to manufacture mixed-backend trees.
class RotatingPolicy : public FilterPolicy {
 public:
  explicit RotatingPolicy(std::vector<std::string> names)
      : names_(std::move(names)) {}

  std::string Name() const override { return "rotating"; }

  std::string CreateFilter(
      const std::vector<uint64_t>& sorted_keys) const override {
    size_t turn = turn_.fetch_add(1, std::memory_order_relaxed);
    const std::string& name =
        names_[std::min(turn, names_.size() - 1)];
    const FilterRegistry::Entry* entry = FilterRegistry::Instance().Find(name);
    if (entry == nullptr) return "";
    FilterBuildParams params;
    params.bits_per_key = 14.0;
    params.max_range = 1 << 16;
    auto filter = entry->build_from_sorted_keys(sorted_keys, params);
    if (filter == nullptr) return "";
    return FilterRegistry::Frame(entry->name, filter->Serialize());
  }

  std::unique_ptr<PointRangeFilter> LoadFilter(
      std::string_view data) const override {
    return FilterRegistry::Instance().Deserialize(data);
  }

 private:
  std::vector<std::string> names_;
  mutable std::atomic<size_t> turn_{0};
};

class AdaptiveFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_adaptive_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions BaseOptions(std::shared_ptr<FilterPolicy> policy) {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = 1 << 20;
    options.wal = false;
    return options;
  }

  std::string dir_;
};

TEST_F(AdaptiveFilterTest, MixedBackendTreeRoundTripsThroughReopen) {
  std::vector<std::string> names = FilterRegistry::Instance().Names();
  ASSERT_GE(names.size(), 4u);
  auto policy = std::make_shared<RotatingPolicy>(names);
  {
    Db db(BaseOptions(policy));
    for (size_t t = 0; t < names.size(); ++t) {
      for (uint64_t k = 0; k < 200; ++k) {
        uint64_t key = t * 100'000 + k * 17;
        ASSERT_TRUE(db.Put(key, MakeValue(key)));
      }
      ASSERT_TRUE(db.Flush());
    }
    ASSERT_EQ(db.num_tables(), names.size());
    std::string value;
    for (size_t t = 0; t < names.size(); ++t) {
      for (uint64_t k = 0; k < 200; ++k) {
        uint64_t key = t * 100'000 + k * 17;
        ASSERT_TRUE(db.Get(key, &value)) << key;
        EXPECT_EQ(value, MakeValue(key));
      }
    }
  }
  // Reopen: every block announces its own backend, so one generic
  // policy instance loads the whole mixed tree.
  Db db(BaseOptions(policy));
  ASSERT_EQ(db.num_tables(), names.size());
  FilterFeedback feedback = db.CollectFilterFeedback();
  EXPECT_GE(feedback.backends.size(), 4u);  // the mix survived reopen
  std::string value;
  for (size_t t = 0; t < names.size(); ++t) {
    for (uint64_t k = 0; k < 200; ++k) {
      uint64_t key = t * 100'000 + k * 17;
      ASSERT_TRUE(db.Get(key, &value)) << key;
    }
  }
}

TEST_F(AdaptiveFilterTest, CompactionMergesEveryBackendPair) {
  std::vector<std::string> names = FilterRegistry::Instance().Names();
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      std::string pair_dir = dir_ + "/" + a + "-" + b;
      // Flush 1 carries `a`, flush 2 carries `b`, the compaction
      // output is rebuilt under `a` again.
      auto policy = std::make_shared<RotatingPolicy>(
          std::vector<std::string>{a, b, a});
      DbOptions options = BaseOptions(policy);
      options.dir = pair_dir;
      Db db(options);
      for (uint64_t k = 0; k < 150; ++k) {
        ASSERT_TRUE(db.Put(k * 3, MakeValue(k)));
      }
      ASSERT_TRUE(db.Flush());
      for (uint64_t k = 100; k < 250; ++k) {
        ASSERT_TRUE(db.Put(k * 3, MakeValue(k + 1'000'000)));
      }
      ASSERT_TRUE(db.Flush());
      ASSERT_EQ(db.num_tables(), 2u);
      ASSERT_TRUE(db.CompactAll()) << a << " + " << b;
      ASSERT_EQ(db.num_tables(), 1u);
      std::string value;
      for (uint64_t k = 0; k < 250; ++k) {
        ASSERT_TRUE(db.Get(k * 3, &value)) << a << "+" << b << " key " << k;
        // Newer flush wins the overlap.
        EXPECT_EQ(value,
                  k >= 100 ? MakeValue(k + 1'000'000) : MakeValue(k));
      }
      EXPECT_FALSE(db.Get(1, &value));
      std::filesystem::remove_all(pair_dir);
    }
  }
}

TEST_F(AdaptiveFilterTest, MixedBackendTreeHonoursTombstones) {
  // Tombstones must shadow across SSTs whose filters use DIFFERENT
  // backends: the tombstone-carrying table's filter (whatever backend
  // it rotated onto) has to admit the deleted key so the lookup stops
  // at the tombstone instead of reaching the older table.
  std::vector<std::string> names = FilterRegistry::Instance().Names();
  ASSERT_GE(names.size(), 4u);
  auto policy = std::make_shared<RotatingPolicy>(names);
  {
    Db db(BaseOptions(policy));
    // SST 1 (backend names[0]): keys 0..599.
    for (uint64_t k = 0; k < 600; ++k) {
      ASSERT_TRUE(db.Put(k, MakeValue(k)));
    }
    ASSERT_TRUE(db.Flush());
    // SST 2 (backend names[1]): tombstones for every 4th key, plus a
    // few re-puts layered on top within the same table.
    for (uint64_t k = 0; k < 600; k += 4) ASSERT_TRUE(db.Delete(k));
    for (uint64_t k = 0; k < 600; k += 16) {
      ASSERT_TRUE(db.Put(k, "reborn"));
    }
    ASSERT_TRUE(db.Flush());
    // SST 3 (backend names[2]): delete some of the reborn keys again.
    for (uint64_t k = 0; k < 600; k += 32) ASSERT_TRUE(db.Delete(k));
    ASSERT_TRUE(db.Flush());
    ASSERT_EQ(db.num_tables(), 3u);
    EXPECT_GT(db.stats().tombstones_live.load(), 0u);
  }
  auto expect_state = [](Db& db) {
    std::string value;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 600; ++k) keys.push_back(k);
    auto answers = db.MultiGet(keys);
    for (uint64_t k = 0; k < 600; ++k) {
      bool alive;
      std::string expected_value;
      if (k % 32 == 0) {
        alive = false;  // deleted, reborn, deleted again
      } else if (k % 16 == 0) {
        alive = true;  // deleted then reborn
        expected_value = "reborn";
      } else if (k % 4 == 0) {
        alive = false;  // deleted
      } else {
        alive = true;
        expected_value = MakeValue(k);
      }
      ASSERT_EQ(db.Get(k, &value), alive) << "key " << k;
      ASSERT_EQ(answers[k].has_value(), alive) << "MultiGet key " << k;
      if (alive) {
        ASSERT_EQ(value, expected_value) << "key " << k;
        ASSERT_EQ(*answers[k], expected_value) << "MultiGet key " << k;
      }
    }
    auto rows = db.RangeScan(0, 599, 1000);
    size_t expected_rows = 0;
    for (uint64_t k = 0; k < 600; ++k) {
      expected_rows += (k % 32 != 0 && (k % 16 == 0 || k % 4 != 0)) ? 1 : 0;
    }
    ASSERT_EQ(rows.size(), expected_rows);
  };
  // The mixed tree answers correctly, survives a reopen, and a full
  // merge (filters rebuilt once more, under yet another backend) drops
  // every tombstone without resurrecting anything.
  Db db(BaseOptions(policy));
  ASSERT_EQ(db.num_tables(), 3u);
  expect_state(db);
  ASSERT_TRUE(db.CompactAll());
  EXPECT_EQ(db.stats().tombstones_live.load(), 0u);
  expect_state(db);
}

TEST_F(AdaptiveFilterTest, AdaptivePolicySwitchesBackendOnWorkloadShift) {
  auto policy = NewAdaptiveFilterPolicy(
      {.bits_per_key = 16.0, .min_samples = 64});
  AdaptiveFilterPolicy* adaptive = policy.get();
  DbOptions options = BaseOptions(std::move(policy));
  Db db(options);
  ASSERT_NE(db.workload_sampler(), nullptr);  // implied by the policy

  for (uint64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(db.Put(k * 31, MakeValue(k)));
  }

  // Phase 1: point-only traffic, then flush. The planner must choose a
  // point-optimal backend.
  std::string value;
  for (uint64_t q = 0; q < 20'000; ++q) db.Get(q * 13, &value);
  ASSERT_TRUE(db.Flush());
  FilterPlan plan = adaptive->LastPlan();
  EXPECT_FALSE(plan.used_fallback);
  EXPECT_EQ(plan.backend, "blocked_bloom") << plan.rationale;
  EXPECT_GE(adaptive->planned_builds(), 1u);

  // Phase 2: the workload shifts to wide ranges; compaction rewrites
  // the table and the planner must follow.
  db.workload_sampler()->Reset();
  for (uint64_t q = 0; q < 20'000; ++q) {
    uint64_t lo = q * 97;
    db.RangeMayMatch(lo, lo + (uint64_t{1} << 30));
  }
  ASSERT_TRUE(db.CompactAll());
  plan = adaptive->LastPlan();
  EXPECT_FALSE(plan.used_fallback);
  EXPECT_NE(plan.backend, "blocked_bloom") << plan.rationale;
  EXPECT_NE(plan.backend, "bloom") << plan.rationale;
  EXPECT_LT(plan.predicted_range_fpr, 1.0);

  // The tree now physically carries the re-tuned backend.
  FilterFeedback feedback = db.CollectFilterFeedback();
  ASSERT_EQ(feedback.backends.size(), 1u);
  EXPECT_EQ(feedback.backends[0].backend, plan.backend);

  // And the data still reads back exactly.
  for (uint64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(db.Get(k * 31, &value)) << k;
    EXPECT_EQ(value, MakeValue(k));
  }
}

TEST_F(AdaptiveFilterTest, AdaptivePolicyWithoutSamplerFallsBack) {
  AdaptiveFilterOptions opts;
  opts.fallback_backend = "bloomrf";
  auto policy = NewAdaptiveFilterPolicy(opts);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 500; ++k) keys.push_back(k * 11);
  std::string block = policy->CreateFilter(keys);  // no context at all
  ASSERT_FALSE(block.empty());
  EXPECT_EQ(policy->fallback_builds(), 1u);
  EXPECT_TRUE(policy->LastPlan().used_fallback);
  auto filter = policy->LoadFilter(block);
  ASSERT_NE(filter, nullptr);
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_TRUE(filter->MayContain(k * 11));
  }
}

TEST_F(AdaptiveFilterTest, FalsePositiveCountersMeasureRealFpr) {
  // A deliberately weak Bloom filter (4 bits/key): absent-key Gets
  // must split into per-level true negatives and false positives whose
  // ratio lands near the analytic ~15% FPR.
  Db db(BaseOptions(NewBloomPolicy(4.0)));
  // Even keys only; one past the probe range so every odd probe below
  // falls inside the table's [min,max] and reaches the filter.
  for (uint64_t k = 0; k <= 20'000; ++k) {
    ASSERT_TRUE(db.Put(k * 2, "x"));
  }
  ASSERT_TRUE(db.Flush());
  db.ResetStats();

  const uint64_t kQueries = 20'000;
  std::string value;
  for (uint64_t q = 0; q < kQueries; ++q) {
    EXPECT_FALSE(db.Get(q * 2 + 1, &value));  // odd: always absent
  }
  const LsmStats& stats = db.stats();
  uint64_t fp = stats.total_filter_false_positives();
  uint64_t tn = stats.total_filter_true_negatives();
  // Every absent-key probe has a definite outcome.
  EXPECT_EQ(fp + tn, kQueries);
  // L0 is stats level 0; no deeper level saw traffic.
  EXPECT_EQ(stats.filter_false_positives[0].load(), fp);
  EXPECT_EQ(stats.filter_true_negatives[0].load(), tn);
  double measured = stats.measured_fpr();
  EXPECT_GT(measured, 0.05);
  EXPECT_LT(measured, 0.35);

  // The same outcomes are visible per backend for the planner.
  FilterFeedback feedback = db.CollectFilterFeedback();
  const BackendObservation* obs = feedback.Find("bloom");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->point_false, fp);
  EXPECT_EQ(obs->point_negatives, tn);
  EXPECT_GT(obs->MeasuredPointFpr(512), 0.05);
}

TEST_F(AdaptiveFilterTest, RangeOutcomesAreAccounted) {
  Db db(BaseOptions(NewBloomRFPolicy(16.0, 1 << 20)));
  for (uint64_t k = 0; k < 10'000; ++k) {
    ASSERT_TRUE(db.Put(k * 1000, "x"));
  }
  ASSERT_TRUE(db.Flush());
  db.ResetStats();

  // Batched empty ranges between the stored keys: every probe either
  // excludes (TN) or scans empty blocks (FP) — both definite.
  std::vector<uint64_t> los, his;
  for (uint64_t q = 0; q < 2000; ++q) {
    uint64_t lo = q * 1000 + 200;
    los.push_back(lo);
    his.push_back(lo + 50);
  }
  auto results = db.ScanRange(los, his, 16);
  for (const auto& rows : results) EXPECT_TRUE(rows.empty());
  const LsmStats& stats = db.stats();
  EXPECT_EQ(stats.total_filter_false_positives() +
                stats.total_filter_true_negatives(),
            los.size());
}

}  // namespace
}  // namespace bloomrf
