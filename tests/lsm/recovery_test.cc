// Crash-recovery tests: a "kill" is simulated by destroying the Db
// without Flush() — the active memtable's contents are dropped (only
// sealed memtables drain at shutdown) and survive solely in the WAL —
// plus, for torn-write cases, externally truncating or corrupting the
// log files the process left behind.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_recovery_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions Options(uint64_t memtable_bytes = 1 << 20) {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
    options.memtable_bytes = memtable_bytes;
    return options;
  }

  std::vector<std::string> WalFiles() const {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".log") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, KillAfterPutRecoversEverything) {
  { // "Crash": no Flush, active memtable only survives in the log.
    Db db(Options());
    for (uint64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(db.Put(k, MakeValue(k, 24)));
    }
  }
  ASSERT_FALSE(WalFiles().empty());
  Db db(Options());
  EXPECT_EQ(db.recovery_stats().wal_records_replayed, 500u);
  EXPECT_EQ(db.recovery_stats().wal_entries_replayed, 500u);
  EXPECT_TRUE(db.recovery_stats().wal_clean);
  std::string value;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 24));
  }
}

TEST_F(RecoveryTest, KillMidRecordRecoversIntactPrefix) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(db.Put(k, std::string(16, 'x')));
    }
  }
  auto files = WalFiles();
  ASSERT_EQ(files.size(), 1u);
  // Tear the final record: the crash cut the last write() short.
  const uint64_t size = std::filesystem::file_size(files[0]);
  std::filesystem::resize_file(files[0], size - 7);

  Db db(Options());
  EXPECT_FALSE(db.recovery_stats().wal_clean);
  EXPECT_EQ(db.recovery_stats().wal_records_replayed, 99u);
  std::string value;
  for (uint64_t k = 0; k < 99; ++k) ASSERT_TRUE(db.Get(k, &value)) << k;
  EXPECT_FALSE(db.Get(99, &value));  // the torn record is gone
}

TEST_F(RecoveryTest, GarbageTailAfterKillIsIgnored) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(db.Put(k, "v"));
  }
  auto files = WalFiles();
  ASSERT_EQ(files.size(), 1u);
  {
    std::ofstream f(files[0], std::ios::binary | std::ios::app);
    std::string garbage = "not a wal record at all, definitely garbage";
    f.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  Db db(Options());
  EXPECT_FALSE(db.recovery_stats().wal_clean);
  EXPECT_EQ(db.recovery_stats().wal_records_replayed, 50u);
  std::string value;
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(db.Get(k, &value));
}

TEST_F(RecoveryTest, BatchIsAllOrNothingInRecovery) {
  {
    Db db(Options());
    ASSERT_TRUE(db.Put(1, "single"));
    std::vector<KV> batch;
    for (uint64_t k = 100; k < 110; ++k) batch.push_back({k, "batched"});
    ASSERT_TRUE(db.WriteBatch(batch));
  }
  auto files = WalFiles();
  ASSERT_EQ(files.size(), 1u);
  // Cut into the middle of the batch record: since a batch is one
  // CRC-framed record, recovery must drop all ten entries, not five.
  std::filesystem::resize_file(files[0],
                               std::filesystem::file_size(files[0]) - 60);
  Db db(Options());
  EXPECT_FALSE(db.recovery_stats().wal_clean);
  std::string value;
  ASSERT_TRUE(db.Get(1, &value));
  for (uint64_t k = 100; k < 110; ++k) {
    EXPECT_FALSE(db.Get(k, &value)) << k;
  }
}

TEST_F(RecoveryTest, DeletedKeyStaysDeletedAcrossReplay) {
  { // Put, flush (key reaches an SST), delete, then "crash": the
    // tombstone survives only in the WAL and must shadow the SST.
    Db db(Options());
    for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Put(k, "flushed"));
    ASSERT_TRUE(db.Flush());
    ASSERT_TRUE(db.Delete(42));
    ASSERT_TRUE(db.Delete(7));
    ASSERT_TRUE(db.Put(7, "reborn"));  // re-put AFTER the delete wins
  }
  Db db(Options());
  std::string value;
  EXPECT_FALSE(db.Get(42, &value)) << "deleted key resurrected by replay";
  ASSERT_TRUE(db.Get(7, &value));
  EXPECT_EQ(value, "reborn");
  for (uint64_t k = 0; k < 100; ++k) {
    if (k == 42) continue;
    ASSERT_TRUE(db.Get(k, &value)) << k;
  }
  // The tombstone must also hold against MultiGet and scans.
  std::vector<uint64_t> keys = {41, 42, 43};
  auto answers = db.MultiGet(keys);
  EXPECT_TRUE(answers[0].has_value());
  EXPECT_FALSE(answers[1].has_value());
  EXPECT_TRUE(answers[2].has_value());
  auto rows = db.RangeScan(40, 44, 16);
  ASSERT_EQ(rows.size(), 4u);  // 40 41 43 44
  for (const auto& [k, v] : rows) EXPECT_NE(k, 42u);
}

TEST_F(RecoveryTest, MixedWriteBatchIsAllOrNothingInRecovery) {
  {
    Db db(Options());
    for (uint64_t k = 100; k < 110; ++k) ASSERT_TRUE(db.Put(k, "old"));
    ASSERT_TRUE(db.Put(1, "single"));
    // One mixed batch: five puts, five deletes, framed as ONE record.
    std::vector<std::string> held;
    held.reserve(5);
    std::vector<KV> ops;
    for (uint64_t k = 200; k < 205; ++k) {
      held.push_back("new" + std::to_string(k));
      ops.push_back({k, held.back(), false});
    }
    for (uint64_t k = 100; k < 105; ++k) {
      ops.push_back({k, std::string_view(), true});
    }
    ASSERT_TRUE(db.WriteBatch(ops));
  }
  auto files = WalFiles();
  ASSERT_EQ(files.size(), 1u);
  // Cut into the middle of the batch record: recovery must drop the
  // WHOLE batch — five new puts AND five deletes — not a prefix.
  std::filesystem::resize_file(files[0],
                               std::filesystem::file_size(files[0]) - 30);
  Db db(Options());
  EXPECT_FALSE(db.recovery_stats().wal_clean);
  std::string value;
  ASSERT_TRUE(db.Get(1, &value));
  for (uint64_t k = 200; k < 205; ++k) {
    EXPECT_FALSE(db.Get(k, &value)) << "half-applied batch put " << k;
  }
  for (uint64_t k = 100; k < 110; ++k) {
    EXPECT_TRUE(db.Get(k, &value)) << "half-applied batch delete " << k;
  }
}

TEST_F(RecoveryTest, BatchedDeletesSurviveKillReopenIntact) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(db.Put(k, "v"));
    std::vector<uint64_t> doomed;
    for (uint64_t k = 0; k < 64; k += 4) doomed.push_back(k);
    ASSERT_TRUE(db.WriteBatch(testing::Deletes(doomed)));
  }
  Db db(Options());
  std::string value;
  for (uint64_t k = 0; k < 64; ++k) {
    if (k % 4 == 0) {
      EXPECT_FALSE(db.Get(k, &value)) << "resurrected " << k;
    } else {
      ASSERT_TRUE(db.Get(k, &value)) << k;
    }
  }
}

TEST_F(RecoveryTest, FlushedDataComesBackFromSstsAndLogsGetDeleted) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 300; ++k) {
      ASSERT_TRUE(db.Put(k, MakeValue(k, 16)));
    }
    ASSERT_TRUE(db.Flush());
    // Flushed data's logs are obsolete and deleted; only the fresh
    // (empty) post-rotation log may remain, and the clean close
    // removes that one too.
    for (uint64_t k = 1000; k < 1100; ++k) {
      ASSERT_TRUE(db.Put(k, MakeValue(k, 16)));  // unflushed tail
    }
  }
  ASSERT_EQ(WalFiles().size(), 1u);  // only the post-flush log survived
  Db db(Options());
  EXPECT_GE(db.recovery_stats().tables_loaded, 1u);
  EXPECT_EQ(db.recovery_stats().wal_entries_replayed, 100u);
  std::string value;
  for (uint64_t k = 0; k < 300; ++k) ASSERT_TRUE(db.Get(k, &value)) << k;
  for (uint64_t k = 1000; k < 1100; ++k) ASSERT_TRUE(db.Get(k, &value)) << k;
}

TEST_F(RecoveryTest, CleanCloseLeavesNoWalFiles) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Put(k, "v"));
    ASSERT_TRUE(db.Flush());
  }
  EXPECT_TRUE(WalFiles().empty());
  Db db(Options());
  EXPECT_EQ(db.recovery_stats().wal_files_replayed, 0u);
  EXPECT_GE(db.recovery_stats().tables_loaded, 1u);
  std::string value;
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Get(k, &value));
}

TEST_F(RecoveryTest, OverwritesReplayInOriginalOrder) {
  {
    Db db(Options());
    ASSERT_TRUE(db.Put(5, "first"));
    ASSERT_TRUE(db.Put(5, "second"));
    ASSERT_TRUE(db.Put(5, "third"));
  }
  Db db(Options());
  std::string value;
  ASSERT_TRUE(db.Get(5, &value));
  EXPECT_EQ(value, "third");
}

TEST_F(RecoveryTest, SealedButUnflushedMemtableRecovers) {
  // Tiny memtable budget forces seals; with a permanently failing
  // flush the sealed data can never reach an SST, so after the "crash"
  // it must come back from the logs alone.
  {
    FaultInjectionEnv fenv;
    fenv.FailAlways("sst");
    DbOptions options = Options(/*memtable_bytes=*/4 << 10);
    options.env = &fenv;
    Db db(options);
    for (uint64_t k = 0; k < 400; ++k) db.Put(k, MakeValue(k, 64));
    // Puts may return false once a flush failed; the WAL still has
    // everything.
  }
  EXPECT_FALSE(WalFiles().empty());
  Db db(Options());
  EXPECT_EQ(db.recovery_stats().tables_loaded, 0u);
  std::string value;
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 64));
  }
}

TEST_F(RecoveryTest, MultipleKillReopenCycles) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    Db db(Options());
    std::string value;
    for (uint64_t k = 0; k < static_cast<uint64_t>(cycle) * 100; ++k) {
      ASSERT_TRUE(db.Get(k, &value)) << "cycle " << cycle << " key " << k;
    }
    for (uint64_t k = cycle * 100; k < (cycle + 1) * 100u; ++k) {
      ASSERT_TRUE(db.Put(k, MakeValue(k, 16)));
    }
  }
  Db db(Options());
  std::string value;
  for (uint64_t k = 0; k < 300; ++k) ASSERT_TRUE(db.Get(k, &value)) << k;
}

TEST_F(RecoveryTest, FsyncModeRoundTrips) {
  {
    DbOptions options = Options();
    options.wal_fsync = true;
    Db db(options);
    for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(db.Put(k, "durable"));
  }
  Db db(Options());
  std::string value;
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(db.Get(k, &value));
}

TEST_F(RecoveryTest, SeparateWalDirIsUsedAndReplayed) {
  const std::string wal_dir = dir_ + "_wal";
  std::filesystem::remove_all(wal_dir);
  {
    DbOptions options = Options();
    options.wal_dir = wal_dir;
    Db db(options);
    for (uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(db.Put(k, "elsewhere"));
  }
  // The data dir holds no logs; the wal dir does.
  EXPECT_TRUE(WalFiles().empty());
  bool has_log = false;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
    has_log |= entry.path().extension() == ".log";
  }
  EXPECT_TRUE(has_log);
  {
    DbOptions options = Options();
    options.wal_dir = wal_dir;
    Db db(options);
    std::string value;
    for (uint64_t k = 0; k < 64; ++k) ASSERT_TRUE(db.Get(k, &value));
  }
  std::filesystem::remove_all(wal_dir);
}

TEST_F(RecoveryTest, WalOffMeansMemtableIsLost) {
  {
    DbOptions options = Options();
    options.wal = false;
    Db db(options);
    for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db.Put(k, "volatile"));
  }
  EXPECT_TRUE(WalFiles().empty());
  DbOptions options = Options();
  options.wal = false;
  Db db(options);
  std::string value;
  EXPECT_FALSE(db.Get(0, &value));
}

TEST_F(RecoveryTest, ShardedWriteBatchRecoversPerShard) {
  ShardedDbOptions options;
  options.dir = dir_;
  options.filter_policy = NewBloomRFPolicy(18.0, 1e6);
  options.num_shards = 4;
  auto deleted = [](uint64_t k) { return k % 5 == 0; };
  {
    ShardedDb db(options);
    std::vector<KV> batch;
    std::vector<std::string> values;
    values.reserve(256);
    for (uint64_t k = 0; k < 256; ++k) {
      values.push_back(MakeValue(k, 20));
      batch.push_back({k, values.back()});
    }
    ASSERT_TRUE(db.WriteBatch(batch));
    // A second batch mixes deletes of every fifth key with a re-put
    // of key 0 after its delete: the later entry wins, per shard.
    batch.clear();
    for (uint64_t k = 0; k < 256; ++k) {
      if (deleted(k)) batch.push_back({k, {}, /*is_delete=*/true});
    }
    batch.push_back({0, values[0]});
    ASSERT_TRUE(db.WriteBatch(batch));
    std::string value;
    for (uint64_t k = 0; k < 256; ++k) {
      EXPECT_EQ(db.Get(k, &value), k == 0 || !deleted(k)) << k;
    }
  }
  ShardedDb db(options);
  std::string value;
  for (uint64_t k = 0; k < 256; ++k) {
    if (k != 0 && deleted(k)) {
      EXPECT_FALSE(db.Get(k, &value)) << "resurrected " << k;
      continue;
    }
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, MakeValue(k, 20));
  }
}

}  // namespace
}  // namespace bloomrf
