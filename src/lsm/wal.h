// Write-ahead log of the mini-LSM store: group-commit writer + replay
// reader.
//
// Record format (little-endian):
//   crc:fixed32  length:fixed32  type:1  payload[length]
//   payload (type 3): count:fixed32 then count x
//     { key:fixed64 flags:1 [value_len:fixed32 value[value_len]] }
//     where flags bit 0 = tombstone (deletes carry no value bytes)
// Every record this build writes is type 3: one WriteBatch of puts
// and deletes (Put and Delete are batches of one). Replay also reads
// type 1, the put-only layout { key:fixed64 value_len:fixed32
// value[value_len] } that earlier builds wrote on every Put: a store
// those builds closed keeps unflushed data in its log, so dropping
// the decoder would lose it on upgrade. The CRC-32C covers
// type+payload, so recovery distinguishes a torn tail (truncated
// write at crash) from real data: replay stops at the first record
// that is short, fails its checksum, or has an unknown type, and
// everything before it is trusted.
//
// Group commit: writers encode their record and, under the writer
// mutex, either become the leader — which commits its own record
// straight from the caller's buffer when the queue is empty (the
// uncontended fast path), then drains anything that queued meanwhile
// as one append per group (plus one msync when fsync is on) and wakes
// the followers — or enqueue and wait on the commit sequence.
//
// The log file is mmap-backed on POSIX: committing a group is a
// memcpy into a shared mapping, which lands the bytes in the kernel
// page cache with no syscall — the same durability class as write()
// without fsync (a process crash loses nothing; dirty pages belong to
// the kernel, only a power loss can drop them), at a fraction of the
// per-record cost. wal_fsync upgrades each commit with an msync of
// the dirty range.
//
// One WalWriter serves exactly one log file; the Db rotates to a new
// file at every memtable seal and deletes files once their memtable's
// flush has durably completed.

#ifndef BLOOMRF_LSM_WAL_H_
#define BLOOMRF_LSM_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bloomrf {

class Env;
struct LsmStats;

// ---------------------------------------------------------------------
// Generic CRC-framed record log. The WAL defined this format; the
// MANIFEST reuses it verbatim (different record type byte), so both
// share one torn-tail-tolerant replay.
// ---------------------------------------------------------------------

/// Appends one `crc | length | type | payload` frame to *out. The
/// CRC-32C covers type+payload.
void AppendFramedRecord(char type, std::string_view payload,
                        std::string* out);

struct FramedReplayResult {
  uint64_t records = 0;  // intact records applied
  uint64_t bytes = 0;    // bytes consumed by intact records
  bool clean = true;     // false: stopped at a torn/corrupt tail
};

/// Walks the intact framed records of `data` in order, calling
/// `apply(type, payload)` per record; apply returning false (malformed
/// payload / unknown type) stops replay uncleanly at that record. An
/// all-zero tail (the preallocated remainder of an mmap-backed log
/// whose writer died before trimming) is a clean EOF; a torn or
/// corrupt tail stops replay uncleanly, trusting everything before it.
FramedReplayResult ReplayFramedRecords(
    std::string_view data,
    const std::function<bool(char, std::string_view)>& apply);

/// Reads the file at `path` fully, then replays it. A missing file
/// replays zero records cleanly.
FramedReplayResult ReplayFramedFile(
    const std::string& path,
    const std::function<bool(char, std::string_view)>& apply);

/// One write-path operation, the unit of Db::WriteBatch: a put of
/// `value`, or a delete (the value is ignored). The view must stay
/// valid for the duration of the call that receives it, so binding it
/// to a temporary std::string (gone by the end of the statement that
/// builds the KV) does not compile.
struct KV {
  KV(uint64_t k, std::string_view v, bool del = false)
      : key(k), value(v), is_delete(del) {}
  template <typename S>
    requires std::is_same_v<std::remove_const_t<S>, std::string>
  KV(uint64_t, S&&, bool = false) = delete;

  uint64_t key = 0;
  std::string_view value;
  bool is_delete = false;
};

/// Encodes one CRC-framed type-3 record covering all of `kvs`.
std::string WalEncodeRecord(std::span<const KV> kvs);
/// Same, into a caller-owned buffer (cleared first) — the hot write
/// path reuses a thread_local string to avoid an allocation per Put.
void WalEncodeRecordTo(std::span<const KV> kvs, std::string* record);

struct WalReplayResult {
  uint64_t records = 0;   // intact records applied
  uint64_t entries = 0;   // key/value pairs applied
  uint64_t bytes = 0;     // file bytes consumed by intact records
  bool clean = true;      // false: stopped at a torn/corrupt tail
};

/// Replays every intact record of the log at `path` in order, calling
/// `apply(key, value, is_delete)` per entry (value is empty for
/// deletes). Tolerates (and reports) a corrupt or truncated tail; a
/// missing file replays zero records cleanly.
WalReplayResult WalReplay(
    const std::string& path,
    const std::function<void(uint64_t, std::string_view, bool)>& apply);

class WalWriter {
 public:
  /// Opens (truncating) the log file. `stats` may be null; when set,
  /// wal_appends / wal_synced_bytes / group_commit_batches and
  /// last_error are maintained on it. `fsync_on_commit` makes every
  /// group commit durable before Append returns. `env` is consulted
  /// only as a fault checkpoint ("wal.open" / "wal.append" sites) —
  /// the byte path stays the mmap below; null checks nothing.
  WalWriter(std::string path, bool fsync_on_commit, LsmStats* stats,
            Env* env = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// True when the log file could not be opened; every Append fails.
  bool broken() const;

  /// Appends one encoded record through the group-commit protocol.
  /// Blocks until the record's group has been written (and synced when
  /// fsync_on_commit). Returns false when the write failed — the error
  /// is sticky for the writer's remaining lifetime (the Db rotates to
  /// a fresh file on the next seal).
  bool Append(std::string_view record);

  /// Forces any OS-buffered bytes down (no-op when fsync_on_commit).
  bool Sync();

  const std::string& path() const { return path_; }

 private:
  bool FileOk() const;
  /// Appends one group's bytes to the log (memcpy into the mapping,
  /// plus msync when fsync_on_commit) — called by the leader only.
  bool WriteBytes(const char* data, size_t n);
  /// Leader helper: drops `lock`, writes the group, retakes `lock`,
  /// publishes `batch_end` (or marks broken_) and wakes followers.
  void CommitGroup(std::unique_lock<std::mutex>& lock, const char* data,
                   size_t n, uint64_t batch_end);
  /// (Re)maps the file at `new_size` preallocated bytes.
  bool Remap(size_t new_size);

  const std::string path_;
  const bool fsync_on_commit_;
  LsmStats* const stats_;
  Env* const env_;  // fault checkpoints only; may be null
  int fd_ = -1;
  char* map_ = nullptr;   // shared file mapping (page-cache-backed)
  size_t map_size_ = 0;   // preallocated mapped bytes
  size_t offset_ = 0;     // bytes of committed records (leader-only)

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;         // concatenated not-yet-written records
  uint64_t next_seq_ = 0;       // last enqueued record
  uint64_t committed_seq_ = 0;  // last record written (+synced) OK
  size_t waiters_ = 0;          // followers (and Sync) blocked on cv_
  bool leader_active_ = false;
  bool broken_ = false;         // sticky after an open/write/sync error
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_WAL_H_
