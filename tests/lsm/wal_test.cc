#include "lsm/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "lsm/table_reader.h"  // LsmStats
#include "util/coding.h"
#include "util/random.h"

namespace bloomrf {
namespace {

// A KV only views its value: binding it to a temporary std::string
// would leave the view dangling before WriteBatch reads it.
static_assert(!std::is_constructible_v<KV, uint64_t, std::string&&>);
static_assert(!std::is_constructible_v<KV, uint64_t, std::string&&, bool>);
static_assert(std::is_constructible_v<KV, uint64_t, const std::string&>);
static_assert(std::is_constructible_v<KV, uint64_t, std::string_view, bool>);
static_assert(std::is_constructible_v<KV, uint64_t, const char*>);

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_wal_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/wal-1.log";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::pair<uint64_t, std::string>> Replay(
      WalReplayResult* result = nullptr) {
    std::vector<std::pair<uint64_t, std::string>> entries;
    WalReplayResult r = WalReplay(
        path_, [&](uint64_t key, std::string_view value, bool is_delete) {
          entries.emplace_back(key, is_delete ? "<del>" : std::string(value));
        });
    if (result != nullptr) *result = r;
    return entries;
  }

  struct Op {
    uint64_t key;
    std::string value;
    bool is_delete;
  };
  std::vector<Op> ReplayOps(WalReplayResult* result = nullptr) {
    std::vector<Op> ops;
    WalReplayResult r = WalReplay(
        path_, [&](uint64_t key, std::string_view value, bool is_delete) {
          ops.push_back({key, std::string(value), is_delete});
        });
    if (result != nullptr) *result = r;
    return ops;
  }

  void Truncate(uint64_t size) {
    std::filesystem::resize_file(path_, size);
  }

  void AppendRaw(std::string_view bytes) {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
  std::string path_;
};

TEST_F(WalTest, RoundTripSingleRecords) {
  {
    WalWriter writer(path_, /*fsync_on_commit=*/false, nullptr);
    ASSERT_FALSE(writer.broken());
    for (uint64_t k = 0; k < 100; ++k) {
      std::string value = "value-" + std::to_string(k);
      KV kv{k, value};
      ASSERT_TRUE(writer.Append(WalEncodeRecord({&kv, 1})));
    }
    ASSERT_TRUE(writer.Sync());
  }
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 100u);
  EXPECT_EQ(result.entries, 100u);
  ASSERT_EQ(entries.size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(entries[k].first, k);
    EXPECT_EQ(entries[k].second, "value-" + std::to_string(k));
  }
}

TEST_F(WalTest, RoundTripBatchRecordIncludingEmptyValues) {
  std::vector<KV> batch = {
      {7, "seven"}, {8, ""}, {9, std::string_view("\0\xff\0", 3)}};
  {
    WalWriter writer(path_, false, nullptr);
    const std::string record = WalEncodeRecord(batch);
    EXPECT_EQ(record[8], 3);  // puts too are written as type 3
    ASSERT_TRUE(writer.Append(record));
  }
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 1u);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1].second, "");
  EXPECT_EQ(entries[2].second, std::string("\0\xff\0", 3));
}

TEST_F(WalTest, RoundTripOpsBatchMixedPutsAndDeletes) {
  std::vector<KV> mixed = {{1, "one", false},
                           {2, std::string_view(), true},
                           {3, "", false},
                           {4, std::string_view(), true}};
  std::vector<KV> pure_deletes = {{10, std::string_view(), true},
                                  {20, std::string_view(), true},
                                  {30, std::string_view(), true}};
  {
    WalWriter writer(path_, false, nullptr);
    for (const auto* kvs : {&mixed, &pure_deletes}) {
      const std::string record = WalEncodeRecord(*kvs);
      EXPECT_EQ(record[8], 3);  // the one record type written
      ASSERT_TRUE(writer.Append(record));
    }
  }
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(result.entries, 7u);
  ASSERT_EQ(replayed.size(), 7u);
  EXPECT_FALSE(replayed[0].is_delete);
  EXPECT_EQ(replayed[0].value, "one");
  EXPECT_TRUE(replayed[1].is_delete);
  EXPECT_TRUE(replayed[1].value.empty());
  EXPECT_FALSE(replayed[2].is_delete);  // empty put is not a delete
  EXPECT_TRUE(replayed[3].is_delete);
  for (size_t i = 0; i < pure_deletes.size(); ++i) {
    EXPECT_EQ(replayed[4 + i].key, pure_deletes[i].key);
    EXPECT_TRUE(replayed[4 + i].is_delete);
  }
}

TEST_F(WalTest, PutOnlyRecordOfEarlierBuildsStillReplays) {
  // Earlier builds logged every Put as a type-1 record: count, then
  // { key:8 value_len:4 value } per entry, no flags byte. No build
  // writes it any more, but a log such a build left behind must still
  // replay — empty values included.
  std::string payload;
  PutFixed32(&payload, 2);
  PutFixed64(&payload, 5);
  PutLengthPrefixed(&payload, "five");
  PutFixed64(&payload, 6);
  PutLengthPrefixed(&payload, "");
  std::string record;
  AppendFramedRecord(/*type=*/1, payload, &record);
  AppendRaw(record);
  KV kv{7, "seven"};
  AppendRaw(WalEncodeRecord({&kv, 1}));  // a newer build appends type 3
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(result.entries, 3u);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].key, 5u);
  EXPECT_EQ(replayed[0].value, "five");
  EXPECT_FALSE(replayed[0].is_delete);
  EXPECT_EQ(replayed[1].key, 6u);
  EXPECT_EQ(replayed[1].value, "");
  EXPECT_FALSE(replayed[1].is_delete);  // an empty put, not a delete
  EXPECT_EQ(replayed[2].key, 7u);
  EXPECT_EQ(replayed[2].value, "seven");
}

TEST_F(WalTest, UnknownOpFlagBitsStopReplay) {
  // A structurally valid ops record whose flags byte uses an undefined
  // bit must stop replay (future format, not silently misread).
  std::string payload;
  payload.append("\x01\x00\x00\x00", 4);                  // count = 1
  payload.append("\x2a\x00\x00\x00\x00\x00\x00\x00", 8);  // key = 42
  payload.push_back(0x02);                                // unknown flag bit
  std::string record;
  AppendFramedRecord(/*type=*/3, payload, &record);
  AppendRaw(record);
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_TRUE(replayed.empty());
}

TEST_F(WalTest, MissingFileRepliesCleanEmpty) {
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 0u);
  EXPECT_TRUE(entries.empty());
}

TEST_F(WalTest, TruncatedTailKeepsPrefix) {
  {
    WalWriter writer(path_, false, nullptr);
    for (uint64_t k = 0; k < 10; ++k) {
      KV kv{k, "0123456789abcdef"};
      ASSERT_TRUE(writer.Append(WalEncodeRecord({&kv, 1})));
    }
  }
  const uint64_t full = std::filesystem::file_size(path_);
  const uint64_t record = full / 10;
  // Chop mid-way through the last record: a torn final write().
  Truncate(full - record / 2);
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.records, 9u);
  ASSERT_EQ(entries.size(), 9u);
  EXPECT_EQ(entries.back().first, 8u);
}

TEST_F(WalTest, EveryTruncationPointIsSafe) {
  // Fuzz the boundary: whatever byte the crash cut at, replay must
  // yield an intact prefix of WHOLE records (batches are
  // all-or-nothing), never crash, and never misparse a delete as a put
  // or vice versa. Two logs: what this build writes (type-3 records
  // interleaving puts and deletes) and what earlier builds wrote
  // (hand-framed type-1 records of puts, one with an empty value).
  const int kRecords = 4;
  std::string current_log, earlier_log;
  std::vector<Op> current_ops, earlier_ops;
  for (uint64_t k = 0; k < kRecords; ++k) {
    std::string value(7, static_cast<char>('a' + k));
    std::vector<KV> kvs = {{2 * k, value, false},
                           {2 * k + 1, std::string_view(), true}};
    current_log += WalEncodeRecord(kvs);
    current_ops.push_back({2 * k, value, false});
    current_ops.push_back({2 * k + 1, "", true});

    std::string payload;
    PutFixed32(&payload, 2);
    PutFixed64(&payload, 2 * k);
    PutLengthPrefixed(&payload, value);
    PutFixed64(&payload, 2 * k + 1);
    PutLengthPrefixed(&payload, "");
    AppendFramedRecord(/*type=*/1, payload, &earlier_log);
    earlier_ops.push_back({2 * k, value, false});
    earlier_ops.push_back({2 * k + 1, "", false});
  }
  const std::pair<const std::string*, const std::vector<Op>*> logs[] = {
      {&current_log, &current_ops}, {&earlier_log, &earlier_ops}};
  for (const auto& [log, expected] : logs) {
    const uint64_t full = log->size();
    const uint64_t record = full / kRecords;
    for (uint64_t cut = 0; cut <= full; ++cut) {
      std::ofstream f(path_, std::ios::binary | std::ios::trunc);
      f.write(log->data(), static_cast<std::streamsize>(cut));
      f.close();
      WalReplayResult result;
      auto ops = ReplayOps(&result);
      ASSERT_EQ(ops.size(), 2 * (cut / record)) << "cut at " << cut;
      EXPECT_EQ(result.clean, cut % record == 0) << "cut at " << cut;
      for (size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(ops[i].key, (*expected)[i].key);
        EXPECT_EQ(ops[i].is_delete, (*expected)[i].is_delete);
        EXPECT_EQ(ops[i].value, (*expected)[i].value);
      }
    }
  }
}

TEST_F(WalTest, CorruptByteStopsAtBadRecord) {
  {
    WalWriter writer(path_, false, nullptr);
    for (uint64_t k = 0; k < 5; ++k) {
      KV kv{k, "payload-payload"};
      ASSERT_TRUE(writer.Append(WalEncodeRecord({&kv, 1})));
    }
  }
  // Flip one payload byte inside the 4th record.
  const uint64_t record = std::filesystem::file_size(path_) / 5;
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(3 * record + record / 2));
    char byte;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(static_cast<std::streamoff>(3 * record + record / 2));
    f.write(&byte, 1);
  }
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(entries.size(), 3u);  // everything before the corrupt record
}

TEST_F(WalTest, GarbageTailIsRejected) {
  {
    WalWriter writer(path_, false, nullptr);
    KV kv{1, "real"};
    ASSERT_TRUE(writer.Append(WalEncodeRecord({&kv, 1})));
  }
  Rng rng(404);
  std::string garbage(256, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.Next());
  AppendRaw(garbage);
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second, "real");
}

TEST_F(WalTest, HugeLengthHeaderDoesNotAllocate) {
  // A garbage header claiming a gigabyte payload must be rejected by
  // the bounds check, not trusted.
  std::string header;
  header.append("\x00\x00\x00\x00", 4);      // crc (wrong, unchecked first)
  header.append("\xff\xff\xff\x7f", 4);      // length ~2GB
  header.push_back(1);                       // valid type
  AppendRaw(header);
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_TRUE(entries.empty());

  // A CRC-valid record whose payload is only a count of 2^32 - 1
  // entries must be rejected before the count sizes anything, in both
  // record layouts: replay keeps the intact record before it.
  for (char type : {1, 3}) {
    std::filesystem::remove(path_);
    KV kv{1, "intact"};
    AppendRaw(WalEncodeRecord({&kv, 1}));
    std::string record;
    AppendFramedRecord(type, std::string(4, '\xff'), &record);
    AppendRaw(record);
    entries = Replay(&result);
    EXPECT_FALSE(result.clean) << "type " << int{type};
    EXPECT_EQ(result.records, 1u) << "type " << int{type};
    ASSERT_EQ(entries.size(), 1u) << "type " << int{type};
    EXPECT_EQ(entries[0].second, "intact");
  }
}

TEST_F(WalTest, BrokenDirectoryFailsAppendAndSetsLastError) {
  LsmStats stats;
  WalWriter writer("/proc/definitely/not/writable/wal-1.log", false, &stats);
  EXPECT_TRUE(writer.broken());
  KV kv{1, "x"};
  EXPECT_FALSE(writer.Append(WalEncodeRecord({&kv, 1})));
  EXPECT_NE(stats.last_error().find("wal"), std::string::npos);
}

TEST_F(WalTest, GroupCommitBatchesConcurrentAppends) {
  LsmStats stats;
  const int kThreads = 8;
  const int kPerThread = 200;
  {
    WalWriter writer(path_, /*fsync_on_commit=*/false, &stats);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
          std::string value = "v" + std::to_string(key);
          KV kv{key, value};
          ASSERT_TRUE(writer.Append(WalEncodeRecord({&kv, 1})));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const uint64_t appends = stats.wal_appends.load();
  const uint64_t batches = stats.group_commit_batches.load();
  EXPECT_EQ(appends, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(batches, 0u);
  EXPECT_LE(batches, appends);
  EXPECT_EQ(stats.wal_synced_bytes.load(), std::filesystem::file_size(path_));

  // Every record must replay intact regardless of how the groups
  // interleaved.
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  ASSERT_EQ(entries.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (const auto& [key, value] : entries) {
    ASSERT_LT(key, seen.size());
    EXPECT_FALSE(seen[key]) << "duplicate key " << key;
    seen[key] = true;
    EXPECT_EQ(value, "v" + std::to_string(key));
  }
}

}  // namespace
}  // namespace bloomrf
