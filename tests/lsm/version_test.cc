// Version::ForEachTable / ForEachMemTable, the one read-precedence
// walk: visit order and deeper-level slicing on hand-built Versions,
// then a differential run that holds every Db read and every
// CompactRange input list against brute-force references.

#include "lsm/version.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lsm/db.h"
#include "lsm/manifest.h"
#include "lsm/table_builder.h"
#include "util/random.h"

namespace bloomrf {
namespace {

using TablePtr = std::shared_ptr<const TableReader>;
using Visits = std::vector<std::pair<size_t, uint64_t>>;  // (level, file)

class VersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_version_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// An SST numbered `number` holding only the keys `lo` and `hi`, so
  /// its bounds are exactly [lo, hi].
  TablePtr Table(uint64_t number, uint64_t lo, uint64_t hi) {
    TableBuilder builder(nullptr, 4096);
    builder.Add(lo, "v");
    if (hi != lo) builder.Add(hi, "v");
    const std::string path = dir_ + "/" + std::to_string(number) + ".sst";
    EXPECT_TRUE(builder.WriteTo(path, nullptr));
    return TableReader::Open(path, nullptr, &stats_, nullptr, number);
  }

  static Visits Walk(const Version& v, uint64_t lo, uint64_t hi) {
    Visits out;
    v.ForEachTable(lo, hi, [&](size_t level, const TablePtr& table) {
      out.emplace_back(level, table->file_number());
      return true;
    });
    return out;
  }

  /// The reference walk: every table of the tree bounds-checked, L0
  /// newest-first, then each deeper level in its stored order. Over
  /// [0, UINT64_MAX] this is the full newest-first table list reads
  /// used to materialize per call.
  static Visits BruteForce(const Version& v, uint64_t lo, uint64_t hi) {
    Visits out;
    const auto& levels = v.levels();
    auto visit = [&](size_t level, const TablePtr& table) {
      if (table->max_key() >= lo && table->min_key() <= hi) {
        out.emplace_back(level, table->file_number());
      }
    };
    for (auto it = levels[0].rbegin(); it != levels[0].rend(); ++it) {
      visit(0, *it);
    }
    for (size_t level = 1; level < levels.size(); ++level) {
      for (const auto& table : levels[level]) visit(level, table);
    }
    return out;
  }

  /// L0 = files 1, 2, 3 in flush order (overlapping); L1 = 4, 5, 6 and
  /// L2 = 7, 8 as disjoint sorted runs.
  std::shared_ptr<const Version> ThreeLevelTree() {
    return Version::FromLevels(
        {{Table(1, 0, 100), Table(2, 50, 150), Table(3, 20, 30)},
         {Table(4, 0, 9), Table(5, 10, 19), Table(6, 20, 29)},
         {Table(7, 0, 50), Table(8, 60, 99)}});
  }

  std::string dir_;
  LsmStats stats_;
};

TEST_F(VersionTest, VisitsL0NewestFirstThenEachLevelInKeyOrder) {
  auto v = ThreeLevelTree();
  EXPECT_EQ(Walk(*v, 0, UINT64_MAX),
            (Visits{{0, 3}, {0, 2}, {0, 1}, {1, 4}, {1, 5}, {1, 6}, {2, 7},
                    {2, 8}}));
  EXPECT_EQ(Walk(*v, 25, 25), (Visits{{0, 3}, {0, 1}, {1, 6}, {2, 7}}));
  EXPECT_EQ(Walk(*v, 120, 200), (Visits{{0, 2}}));
  EXPECT_EQ(Walk(*v, 151, UINT64_MAX), Visits{});
}

TEST_F(VersionTest, DeeperLevelSliceBoundaries) {
  auto v = Version::FromLevels(
      {{}, {Table(1, 10, 19), Table(2, 30, 39), Table(3, 50, 59)}});
  const struct {
    uint64_t lo, hi;
    std::vector<uint64_t> files;
  } cases[] = {
      {10, 10, {1}},          // exactly on a min_key
      {19, 19, {1}},          // exactly on a max_key
      {9, 10, {1}},           // ends on a min_key
      {19, 30, {1, 2}},       // max_key of one to min_key of the next
      {39, 50, {2, 3}},
      {20, 29, {}},           // inside a gap
      {40, 49, {}},
      {0, 9, {}},             // before the first file
      {60, UINT64_MAX, {}},   // past the last file
      {59, 59, {3}},
      {15, 55, {1, 2, 3}},
      {0, UINT64_MAX, {1, 2, 3}},
  };
  for (const auto& c : cases) {
    Visits expected;
    for (uint64_t file : c.files) expected.emplace_back(1, file);
    EXPECT_EQ(Walk(*v, c.lo, c.hi), expected) << "[" << c.lo << ", " << c.hi
                                              << "]";
  }
}

TEST_F(VersionTest, RandomTreesMatchTheBruteForceWalk) {
  Rng rng(17);
  uint64_t number = 1;
  for (int tree = 0; tree < 10; ++tree) {
    std::vector<Version::TableList> levels(1 + rng.Uniform(4));
    for (int i = 0, n = static_cast<int>(rng.Uniform(4)); i < n; ++i) {
      const uint64_t lo = rng.Uniform(1000);
      levels[0].push_back(Table(number++, lo, lo + rng.Uniform(300)));
    }
    for (size_t level = 1; level < levels.size(); ++level) {
      // A disjoint sorted run: ascending bounds, consumed in pairs.
      std::vector<uint64_t> bounds;
      for (int i = 0, n = 2 * static_cast<int>(rng.Uniform(6)); i < n; ++i) {
        bounds.push_back(rng.Uniform(1000));
      }
      std::sort(bounds.begin(), bounds.end());
      bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
      for (size_t i = 0; i + 1 < bounds.size(); i += 2) {
        levels[level].push_back(Table(number++, bounds[i], bounds[i + 1]));
      }
    }
    auto v = Version::FromLevels(std::move(levels));
    ASSERT_EQ(Walk(*v, 0, UINT64_MAX), BruteForce(*v, 0, UINT64_MAX));
    ASSERT_EQ(Walk(*v, 0, UINT64_MAX).size(), v->table_count());
    for (int q = 0; q < 300; ++q) {
      const uint64_t lo = rng.Uniform(1400);
      const uint64_t hi = lo + rng.Uniform(q % 2 == 0 ? 5 : 400);
      ASSERT_EQ(Walk(*v, lo, hi), BruteForce(*v, lo, hi))
          << "tree " << tree << " [" << lo << ", " << hi << "]";
    }
  }
}

TEST_F(VersionTest, EmptyLevelsAreSkipped) {
  EXPECT_EQ(Walk(Version(), 0, UINT64_MAX), Visits{});
  EXPECT_EQ(Walk(*Version::FromLevels({}), 0, UINT64_MAX), Visits{});
  auto v = Version::FromLevels({{}, {}, {Table(1, 5, 6)}, {}});
  EXPECT_EQ(Walk(*v, 0, UINT64_MAX), (Visits{{2, 1}}));
  EXPECT_EQ(Walk(*v, 6, 6), (Visits{{2, 1}}));
  EXPECT_EQ(Walk(*v, 7, 7), Visits{});
}

TEST_F(VersionTest, StopsWhenTheCallbackReturnsFalse) {
  auto v = ThreeLevelTree();
  for (size_t stop_after = 1; stop_after <= 8; ++stop_after) {
    Visits seen;
    v->ForEachTable(0, UINT64_MAX, [&](size_t level, const TablePtr& table) {
      seen.emplace_back(level, table->file_number());
      return seen.size() < stop_after;
    });
    const Visits all = Walk(*v, 0, UINT64_MAX);
    EXPECT_EQ(seen, Visits(all.begin(), all.begin() + stop_after));
  }
}

TEST_F(VersionTest, FromLevelsSortsDeeperLevelsByMinKey) {
  // A MANIFEST replays a level in edit order: here the file added
  // second holds the smaller keys.
  auto v = Version::FromLevels({{Table(1, 0, 9), Table(2, 5, 6)},
                                {Table(3, 50, 59), Table(4, 10, 19)}});
  EXPECT_EQ(v->levels()[0][0]->file_number(), 1u);  // L0 keeps flush order
  EXPECT_EQ(v->levels()[1][0]->file_number(), 4u);
  EXPECT_EQ(v->levels()[1][1]->file_number(), 3u);
  EXPECT_EQ(Walk(*v, 12, 12), (Visits{{1, 4}}));
  EXPECT_EQ(Walk(*v, 55, 55), (Visits{{1, 3}}));
}

TEST_F(VersionTest, MemTablesActiveThenSealedNewestFirst) {
  auto v0 = Version::FromLevels({});
  auto m1 = std::make_shared<MemTable>();
  auto m2 = std::make_shared<MemTable>();
  auto v2 = v0->WithSealedActive(m1)->WithSealedActive(m2);
  std::vector<const MemTable*> seen;
  v2->ForEachMemTable([&](const MemTable& mem) {
    seen.push_back(&mem);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<const MemTable*>{m2.get(), m1.get(),
                                                v0->active().get()}));
  seen.clear();
  v2->ForEachMemTable([&](const MemTable& mem) {
    seen.push_back(&mem);
    return false;
  });
  EXPECT_EQ(seen, (std::vector<const MemTable*>{m2.get()}));
}

// ---------------------------------------------------------------------
// Differential: a Db whose tree reaches L2+ under random writes,
// flushes, background compactions and CompactRange calls answers every
// read like a std::map, and every CompactRange takes exactly the
// whole-file closure of its range, in precedence order.

constexpr uint64_t kDomain = 3000;

class PrecedenceDbTest : public VersionTest {
 protected:
  DbOptions Options() {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = NewBloomPolicy(10.0);
    options.block_size = 512;
    options.memtable_bytes = 4 << 10;
    options.wal = false;
    options.compaction = true;
    options.l0_compaction_trigger = 2;
    options.level_base_bytes = 6 << 10;
    options.level_size_multiplier = 2;
    options.max_levels = 5;
    // CompactRange's edit must stay readable in the live manifest.
    options.manifest_rewrite_bytes = 1ull << 30;
    return options;
  }

  /// Every intact edit of the live MANIFEST, in order.
  std::vector<VersionEdit> ManifestEdits() {
    std::vector<VersionEdit> edits;
    ReplayFramedFile(
        ManifestFileName(dir_, ReadCurrentManifestNumber(dir_)),
        [&](char type, std::string_view payload) {
          VersionEdit edit;
          if (type != kManifestEditRecord ||
              !VersionEdit::Decode(payload, &edit)) {
            return false;
          }
          edits.push_back(std::move(edit));
          return true;
        });
    return edits;
  }

  /// The tree the edits describe, as (level, meta) in read precedence
  /// order: L0 newest-first, then each deeper level by key.
  static std::vector<std::pair<uint32_t, FileMeta>> PrecedenceOrder(
      const std::vector<VersionEdit>& edits) {
    ManifestState state;
    for (const VersionEdit& edit : edits) EXPECT_TRUE(state.Apply(edit));
    std::vector<std::pair<uint32_t, FileMeta>> files;
    for (size_t level = 0; level < state.levels.size(); ++level) {
      auto metas = state.levels[level];
      if (level == 0) {
        std::reverse(metas.begin(), metas.end());
      } else {
        std::sort(metas.begin(), metas.end(),
                  [](const FileMeta& a, const FileMeta& b) {
                    return a.smallest < b.smallest;
                  });
      }
      for (const FileMeta& meta : metas) {
        files.emplace_back(static_cast<uint32_t>(level), meta);
      }
    }
    return files;
  }

  /// Brute-force whole-file closure of [lo, hi]: take any file that
  /// overlaps the range, widen the range to it, repeat until nothing
  /// changes. Returns the taken files in precedence order.
  static std::vector<std::pair<uint32_t, uint64_t>> ClosureInputs(
      const std::vector<std::pair<uint32_t, FileMeta>>& files, uint64_t lo,
      uint64_t hi) {
    std::vector<char> taken(files.size(), 0);
    for (bool grew = true; grew;) {
      grew = false;
      for (size_t i = 0; i < files.size(); ++i) {
        const FileMeta& meta = files[i].second;
        if (taken[i] || meta.largest < lo || meta.smallest > hi) continue;
        taken[i] = 1;
        lo = std::min(lo, meta.smallest);
        hi = std::max(hi, meta.largest);
        grew = true;
      }
    }
    std::vector<std::pair<uint32_t, uint64_t>> inputs;
    for (size_t i = 0; i < files.size(); ++i) {
      if (!taken[i]) continue;
      inputs.emplace_back(files[i].first, files[i].second.file_number);
    }
    return inputs;
  }

  /// Keys whose newest on-disk entry below L0 is a tombstone sitting
  /// above a value at a deeper level.
  size_t CountShadowingTombstones(
      const std::vector<std::pair<uint32_t, FileMeta>>& files) {
    std::map<uint64_t, std::vector<std::pair<uint32_t, bool>>> versions;
    for (const auto& [level, meta] : files) {
      if (level == 0) continue;
      auto table = TableReader::Open(
          dir_ + "/" + std::to_string(meta.file_number) + ".sst", nullptr,
          &stats_);
      if (table == nullptr) {
        ADD_FAILURE() << "cannot open table " << meta.file_number;
        continue;
      }
      for (TableReader::Iterator it(*table, &stats_, 0, false); it.Valid();
           it.Next()) {
        versions[it.key()].emplace_back(level, it.tombstone());
      }
    }
    size_t shadowing = 0;
    for (const auto& [key, entries] : versions) {
      // Precedence order: the first entry is the shallowest.
      if (entries.size() >= 2 && entries[0].second && !entries[1].second &&
          entries[1].first > entries[0].first) {
        ++shadowing;
      }
    }
    return shadowing;
  }

  static std::optional<std::string> Expected(
      const std::map<uint64_t, std::string>& ref, uint64_t key) {
    auto it = ref.find(key);
    if (it == ref.end()) return std::nullopt;
    return it->second;
  }

  static std::vector<std::pair<uint64_t, std::string>> Slice(
      const std::map<uint64_t, std::string>& ref, uint64_t lo, uint64_t hi,
      size_t limit) {
    std::vector<std::pair<uint64_t, std::string>> rows;
    for (auto it = ref.lower_bound(lo);
         it != ref.end() && it->first <= hi && rows.size() < limit; ++it) {
      rows.emplace_back(it->first, it->second);
    }
    return rows;
  }

  void ExpectReadsMatch(Db& db, const std::map<uint64_t, std::string>& ref,
                        Rng& rng) {
    std::vector<uint64_t> keys;
    for (int i = 0; i < 200; ++i) keys.push_back(rng.Uniform(kDomain + 50));
    std::string value;
    for (uint64_t key : keys) {
      const auto expected = Expected(ref, key);
      ASSERT_EQ(db.Get(key, &value), expected.has_value()) << "Get " << key;
      if (expected.has_value()) {
        ASSERT_EQ(value, *expected) << "Get " << key;
      }
    }
    const auto multi = db.MultiGet(keys);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(multi[i], Expected(ref, keys[i])) << "MultiGet " << keys[i];
    }
    std::vector<uint64_t> los, his;
    for (int i = 0; i < 8; ++i) {
      los.push_back(rng.Uniform(kDomain));
      his.push_back(los.back() + rng.Uniform(i % 2 == 0 ? 10 : 400));
    }
    const size_t limit = 1 + rng.Uniform(300);
    const auto scans = db.ScanRange(los, his, limit);
    for (size_t i = 0; i < los.size(); ++i) {
      ASSERT_EQ(scans[i], Slice(ref, los[i], his[i], limit))
          << "ScanRange [" << los[i] << ", " << his[i] << "]";
      if (!scans[i].empty()) {  // a filter may err only towards "maybe"
        ASSERT_TRUE(db.RangeMayMatch(los[i], his[i]))
            << "RangeMayMatch [" << los[i] << ", " << his[i] << "]";
      }
    }
    ASSERT_EQ(db.RangeScan(los[0], his[0], 1 << 20),
              Slice(ref, los[0], his[0], 1 << 20));
  }
};

TEST_F(PrecedenceDbTest, ReadsAndCompactRangeInputsMatchReferences) {
  std::map<uint64_t, std::string> ref;
  Rng rng(90017);
  Db db(Options());
  size_t compact_ranges_checked = 0;
  size_t shadowing_seen = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 250; ++i) {
      const uint64_t key = rng.Uniform(kDomain);
      if (rng.Uniform(100) < 15) {
        ASSERT_TRUE(db.Delete(key));
        ref.erase(key);
      } else {
        const std::string value =
            "r" + std::to_string(round) + "-" + std::to_string(i);
        ASSERT_TRUE(db.Put(key, value));
        ref[key] = value;
      }
    }
    // Some rounds leave their tail in the memtable.
    if (round % 3 != 2) {
      ASSERT_TRUE(db.Flush());
    }
    ASSERT_NO_FATAL_FAILURE(ExpectReadsMatch(db, ref, rng));
    if (round % 2 == 1) continue;

    // Drain, so the tree CompactRange snapshots is the one read here.
    ASSERT_TRUE(db.Flush());
    ASSERT_TRUE(db.WaitForCompaction());
    const auto before = ManifestEdits();
    const auto files = PrecedenceOrder(before);
    shadowing_seen += CountShadowingTombstones(files);
    uint64_t lo = rng.Uniform(kDomain), hi = lo + rng.Uniform(kDomain / 4);
    if (round % 10 == 8) {
      lo = 0;
      hi = UINT64_MAX;
    }
    const auto expected = ClosureInputs(files, lo, hi);
    ASSERT_TRUE(db.CompactRange(lo, hi));
    ASSERT_TRUE(db.WaitForCompaction());
    const auto after = ManifestEdits();
    if (expected.empty()) {
      EXPECT_EQ(after.size(), before.size()) << "round " << round;
    } else {
      ASSERT_GT(after.size(), before.size()) << "round " << round;
      EXPECT_EQ(after[before.size()].deleted, expected)
          << "round " << round << " [" << lo << ", " << hi << "]";
      ++compact_ranges_checked;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectReadsMatch(db, ref, rng));
  }
  EXPECT_GE(compact_ranges_checked, 10u);
  EXPECT_GT(shadowing_seen, 0u);
  const auto counts = db.level_table_counts();
  ASSERT_GE(counts.size(), 3u);
  size_t deep_tables = 0;
  for (size_t level = 2; level < counts.size(); ++level) {
    deep_tables += counts[level];
  }
  EXPECT_GT(deep_tables, 0u);
  EXPECT_EQ(db.RangeScan(0, UINT64_MAX, 1 << 20),
            Slice(ref, 0, UINT64_MAX, 1 << 20));
}

TEST_F(PrecedenceDbTest, ReopenedTreeKeepsDeeperLevelsSearchable) {
  // Two L0->L1 compactions land L1 files in the MANIFEST out of key
  // order; after a reopen every key must still be found by the walk's
  // binary search over L1.
  std::map<uint64_t, std::string> ref;
  DbOptions options = Options();
  options.compaction = false;
  {
    Db db(options);
    for (uint64_t key = 2000; key < 2100; ++key) {
      ASSERT_TRUE(db.Put(key, "high"));
      ref[key] = "high";
    }
    ASSERT_TRUE(db.CompactRange(2000, 2099));
    for (uint64_t key = 0; key < 100; ++key) {
      ASSERT_TRUE(db.Put(key, "low"));
      ref[key] = "low";
    }
    ASSERT_TRUE(db.CompactRange(0, 99));
    ASSERT_EQ(db.level_table_counts(), (std::vector<size_t>{0, 2}));
  }
  Db db(options);
  ASSERT_EQ(db.level_table_counts(), (std::vector<size_t>{0, 2}));
  std::string value;
  for (const auto& [key, expected] : ref) {
    ASSERT_TRUE(db.Get(key, &value)) << key;
    EXPECT_EQ(value, expected);
  }
  std::vector<uint64_t> keys = {5, 2050, 3000};
  EXPECT_EQ(db.MultiGet(keys),
            (std::vector<std::optional<std::string>>{"low", "high",
                                                     std::nullopt}));
}

}  // namespace
}  // namespace bloomrf
