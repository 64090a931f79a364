// SST reader of the mini-LSM store, with per-probe cost accounting
// matching the breakdown the paper reports in Fig. 12.G (filter probe
// time, deserialization time, I/O wait, residual CPU).
//
// Reads go through an optional shared BlockCache: a data block is read
// and parsed at most once while it stays resident, and MultiGet
// batch-probes the filter (MayContainBatch) then visits each surviving
// block once for all keys that map to it.
//
// All read methods are const and safe to call from many threads at
// once: file access uses positioned reads (pread) so no seek state is
// shared, loaded filters are immutable, the block cache is internally
// locked, and stats counters are atomics.

#ifndef BLOOMRF_LSM_TABLE_READER_H_
#define BLOOMRF_LSM_TABLE_READER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lsm/block.h"  // Lookup, ScanEntry
#include "lsm/block_cache.h"
#include "lsm/filter_policy.h"

namespace bloomrf {

/// The scalar counters of LsmStats, declared once: X(name, kind), with
/// kind kCounter (cumulative; Reset zeroes it) or kGauge (a level the
/// engine maintains, such as a count of live objects or running jobs;
/// Reset keeps it, because the engine adjusts it relative to its
/// current value). Every member, copy, Accumulate and Reset is
/// generated from this list and BLOOMRF_LSM_STATS_LEVEL_ARRAYS, so a
/// counter added here is carried by all of them.
#define BLOOMRF_LSM_STATS_SCALARS(X)                                        \
  /* Read path: filter probes, physical block reads (cache misses           \
     included) and the Fig. 12.G probe-cost breakdown. */                   \
  X(filter_probes, kCounter)                                                \
  X(blocks_read, kCounter)                                                  \
  X(bytes_read, kCounter)                                                   \
  X(block_cache_hits, kCounter)                                             \
  X(block_cache_misses, kCounter)                                           \
  X(filter_probe_nanos, kCounter)                                           \
  X(io_nanos, kCounter)                                                     \
  X(deser_nanos, kCounter)                                                  \
  /* Write path: WAL records appended, bytes handed to write() (and         \
     synced when wal_fsync is on), and physical group-commit writes;        \
     appends/batches is the average group size under contention. */         \
  X(wal_appends, kCounter)                                                  \
  X(wal_synced_bytes, kCounter)                                             \
  X(group_commit_batches, kCounter)                                         \
  /* Maintenance path: background compactions completed/failed and the      \
     bytes they moved; manifest edits appended and full snapshot            \
     rewrites; tables quarantined (renamed aside as unreadable) at open     \
     and data-block CRC mismatches caught at read time. */                  \
  X(compactions, kCounter)                                                  \
  X(compaction_failures, kCounter)                                          \
  X(compaction_bytes_read, kCounter)                                        \
  X(compaction_bytes_written, kCounter)                                     \
  X(manifest_appends, kCounter)                                             \
  X(manifest_rewrites, kCounter)                                            \
  X(tables_quarantined, kCounter)                                           \
  X(block_crc_errors, kCounter)                                             \
  /* Delete path: tombstones written into SSTs (flush and compaction        \
     outputs) and tombstones compaction dropped at the bottom-most          \
     eligible level; the gauge is the tombstones live across the            \
     published version's SSTs, recomputed when the version changes. */      \
  X(tombstones_written, kCounter)                                           \
  X(tombstones_dropped, kCounter)                                           \
  X(tombstones_live, kGauge)                                                \
  /* Parallel compaction: range-partitioned subcompaction workers run,      \
     and the jobs executing right now (background jobs and manual           \
     CompactRange both count). */                                           \
  X(subcompactions_run, kCounter)                                           \
  X(compactions_inflight, kGauge)

/// The per-level counter arrays of LsmStats (kStatsLevels slots each,
/// deeper levels folded into the last), all cumulative:
///  - filter outcomes: a probe the filter allowed but the data blocks
///    then rejected (false positive) vs a probe the filter rejected
///    (true negative; the structures have no false negatives), so
///    measured FPR = fp / (fp + tn);
///  - compaction work attributed to the job's OUTPUT level: bytes in
///    and out of each level's merges and the wall time they took.
#define BLOOMRF_LSM_STATS_LEVEL_ARRAYS(X) \
  X(filter_false_positives)               \
  X(filter_true_negatives)                \
  X(compaction_bytes_read_level)          \
  X(compaction_bytes_written_level)       \
  X(compaction_micros_level)

/// Aggregated probe-cost counters (shared by DB across its tables).
/// Fields are relaxed atomics so concurrent readers can account into
/// one instance without tearing; copying takes a (non-atomic-as-a-
/// whole) field-by-field snapshot, which is exact whenever the copier
/// has quiesced the readers and merely approximate otherwise.
struct LsmStats {
  /// Levels with their own per-level counters; deeper levels fold into
  /// the last bucket.
  static constexpr size_t kStatsLevels = 8;
  /// The kind column of BLOOMRF_LSM_STATS_SCALARS.
  enum class Kind { kCounter, kGauge };

#define BLOOMRF_LSM_STATS_DECLARE_SCALAR(name, kind) \
  std::atomic<uint64_t> name{0};
#define BLOOMRF_LSM_STATS_DECLARE_ARRAY(name) \
  std::atomic<uint64_t> name[kStatsLevels]{};
  BLOOMRF_LSM_STATS_SCALARS(BLOOMRF_LSM_STATS_DECLARE_SCALAR)
  BLOOMRF_LSM_STATS_LEVEL_ARRAYS(BLOOMRF_LSM_STATS_DECLARE_ARRAY)
#undef BLOOMRF_LSM_STATS_DECLARE_SCALAR
#undef BLOOMRF_LSM_STATS_DECLARE_ARRAY

  LsmStats() = default;
  LsmStats(const LsmStats& o) { *this = o; }
  LsmStats& operator=(const LsmStats& o) {
    if (this == &o) return *this;
    ForEachCounter(o, [](std::atomic<uint64_t>& mine,
                         const std::atomic<uint64_t>& theirs, Kind) {
      mine.store(theirs.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    });
    SetLastError(o.last_error());
    return *this;
  }

  /// Adds another instance's counters into this one (shard roll-up).
  /// Gauges add up too: the roll-up of per-shard levels is their sum.
  void Accumulate(const LsmStats& o) {
    ForEachCounter(o, [](std::atomic<uint64_t>& mine,
                         const std::atomic<uint64_t>& theirs, Kind) {
      mine.fetch_add(theirs.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    });
    if (last_error().empty()) SetLastError(o.last_error());
  }

  /// Zeroes every cumulative counter and clears last_error(). Gauges
  /// keep their value: they describe the engine's current state, and a
  /// job running across the reset still decrements its gauge.
  void Reset() {
    ForEachCounter(*this, [](std::atomic<uint64_t>& mine,
                             const std::atomic<uint64_t>&, Kind kind) {
      if (kind == Kind::kCounter) mine.store(0, std::memory_order_relaxed);
    });
    SetLastError("");
  }

  /// Most recent write-path failure (WAL open/write, flush I/O) — why
  /// a Put returned false. Empty when nothing has failed. Sticky until
  /// Reset().
  std::string last_error() const {
    std::lock_guard<std::mutex> lock(err_mu_);
    return last_error_;
  }
  void SetLastError(std::string msg) {
    std::lock_guard<std::mutex> lock(err_mu_);
    last_error_ = std::move(msg);
  }

  /// Folds a table's level into the per-level counter bucket.
  static size_t StatsLevel(uint32_t level) {
    return level < kStatsLevels ? level : kStatsLevels - 1;
  }

  uint64_t total_filter_false_positives() const {
    uint64_t total = 0;
    for (size_t l = 0; l < kStatsLevels; ++l) {
      total += filter_false_positives[l].load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t total_filter_true_negatives() const {
    uint64_t total = 0;
    for (size_t l = 0; l < kStatsLevels; ++l) {
      total += filter_true_negatives[l].load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Measured FPR over all probes with a definite outcome; 0 when none.
  double measured_fpr() const {
    uint64_t fp = total_filter_false_positives();
    uint64_t tn = total_filter_true_negatives();
    return fp + tn > 0
               ? static_cast<double>(fp) / static_cast<double>(fp + tn)
               : 0.0;
  }

 private:
  /// Calls fn(mine, theirs, kind) for every counter and level slot of
  /// this instance, paired with the same slot of `o`.
  template <typename Fn>
  void ForEachCounter(const LsmStats& o, Fn fn) {
#define BLOOMRF_LSM_STATS_VISIT_SCALAR(name, kind) \
  fn(name, o.name, Kind::kind);
#define BLOOMRF_LSM_STATS_VISIT_ARRAY(name)    \
  for (size_t l = 0; l < kStatsLevels; ++l) { \
    fn(name[l], o.name[l], Kind::kCounter);   \
  }
    BLOOMRF_LSM_STATS_SCALARS(BLOOMRF_LSM_STATS_VISIT_SCALAR)
    BLOOMRF_LSM_STATS_LEVEL_ARRAYS(BLOOMRF_LSM_STATS_VISIT_ARRAY)
#undef BLOOMRF_LSM_STATS_VISIT_SCALAR
#undef BLOOMRF_LSM_STATS_VISIT_ARRAY
  }

  mutable std::mutex err_mu_;
  std::string last_error_;
};

class TableReader {
 public:
  /// Opens `path` and validates its metadata before serving a byte:
  /// the 56-byte v3 footer and its magic, index/filter bounds against
  /// the file size, index CRC and shape (strictly increasing last keys,
  /// contiguous block extents), filter CRC. Deserializes the filter
  /// block via `policy` (may be null). Returns null on any corruption
  /// — the Db quarantines such files. `cache`, when non-null, serves
  /// repeated block reads across all read paths of this table.
  /// `file_number` is the SST's manifest identity (0 when unknown).
  static std::unique_ptr<TableReader> Open(
      const std::string& path, const FilterPolicy* policy, LsmStats* stats,
      std::shared_ptr<BlockCache> cache = nullptr, uint64_t file_number = 0);

  ~TableReader();

  /// Tri-state point lookup: kHit fills `value` (when non-null),
  /// kTombstone means this table holds a deletion of the key — the
  /// caller must stop the newest-first walk and report "absent", never
  /// fall through to an older table. Records the filter's outcome
  /// (RecordOutcome): a rejection is a true negative, an allowed key
  /// the blocks lack a false positive. A tombstone hit confirms the
  /// filter's answer (the key IS in the table), and an unreadable block
  /// leaves the answer unknown; neither records an outcome.
  Lookup Find(uint64_t key, std::string* value, LsmStats* stats) const;

  /// Live-value lookup: Find == kHit. `value` may be null (existence
  /// check only). A tombstoned key reads as absent — single-table
  /// callers only; engine walks use Find so deletions shadow.
  bool Get(uint64_t key, std::string* value, LsmStats* stats) const {
    return Find(key, value, stats) == Lookup::kHit;
  }

  /// Batched point lookup. For each i with states[i] == kMiss, probes
  /// keys[i]; on a hit sets states[i] = kHit and (if `values` is
  /// non-null) values[i]; on a tombstone sets states[i] = kTombstone
  /// (resolved: older tables must not override it). Keys already
  /// resolved are skipped, so a DB can chain the same arrays through
  /// tables newest-first. The filter is consulted once per batch via
  /// MayContainBatch, and each surviving data block is fetched and
  /// parsed once for all keys mapping to it. Records outcomes by
  /// Find's rule. Returns the number of newly resolved keys (hits +
  /// tombstones).
  size_t MultiGet(std::span<const uint64_t> keys, Lookup* states,
                  std::string* values, LsmStats* stats) const;

  /// Batched range filter probe: may_match[i] holds this table's
  /// filter answer for [los[i], his[i]] (true when the table has no
  /// filter). One planned MayContainRangeBatch per call instead of N
  /// scalar descents — the filter-side half of Db::ScanRange. Records
  /// each rejection as a true negative; the outcome of an allowed range
  /// is recorded by the RangeCursor that reads it.
  void RangeMultiProbe(std::span<const uint64_t> los,
                       std::span<const uint64_t> his, bool* may_match,
                       LsmStats* stats) const;

  /// The block-side half of a range probe: appends up to `limit`
  /// entries in [lo, hi] (tombstones included) to `out` without
  /// consulting the filter (callers already probed via
  /// RangeMultiProbe). A loop over a cache-aware Iterator, so reads go
  /// through the shared block cache; an unreadable block ends the scan.
  void ScanBlocks(uint64_t lo, uint64_t hi, size_t limit,
                  std::vector<ScanEntry>* out, LsmStats* stats) const;

  uint64_t min_key() const { return min_key_; }
  uint64_t max_key() const { return max_key_; }
  /// Tombstone entries in this table, from the footer.
  uint64_t num_tombstones() const { return num_tombstones_; }
  uint64_t filter_memory_bits() const {
    return filter_ ? filter_->MemoryBits() : 0;
  }
  const PointRangeFilter* filter() const { return filter_.get(); }
  uint64_t file_number() const { return file_number_; }
  uint64_t file_size() const { return file_size_; }
  const std::string& path() const { return path_; }

  /// LSM level of this table, for per-level stats attribution. Set
  /// once by the Db before the reader is shared (no synchronization).
  void set_level(uint32_t level) { level_ = level; }
  uint32_t level() const { return level_; }
  /// Registry name of the filter backend this table carries (parsed
  /// from the framed filter block); "" when the table has no filter.
  const std::string& filter_backend() const { return filter_backend_; }

  /// Lifetime probe outcomes of this table's filter, the per-table
  /// view of the outcome ledger (see RecordOutcome): it dies with the
  /// table and feeds the planner per backend (Db::CollectFilterFeedback).
  FilterOutcomes filter_outcomes() const {
    constexpr auto kPoint = static_cast<size_t>(Probe::kPoint);
    constexpr auto kRange = static_cast<size_t>(Probe::kRange);
    FilterOutcomes out;
    out.point_false = false_positives_[kPoint].load(std::memory_order_relaxed);
    out.point_negatives = negatives_[kPoint].load(std::memory_order_relaxed);
    out.range_false = false_positives_[kRange].load(std::memory_order_relaxed);
    out.range_negatives = negatives_[kRange].load(std::memory_order_relaxed);
    return out;
  }

  /// Sorted cursor over the table's entries (tombstones included),
  /// positioned on the first entry with key >= `start_key` (past the
  /// end when the table has none), so it reads only the blocks its key
  /// range touches. The caller picks the block source: `use_cache`
  /// reads through the shared cache (GetBlock — the scan path), off
  /// reads blocks directly (compaction, so a sweep never washes the
  /// cache's hot read-path blocks out). `ok()` turns false if a block
  /// fails to read or checksum — the cursor then ends early and a
  /// caller that must not lose rows (a compaction merge) aborts.
  class Iterator {
   public:
    Iterator(const TableReader& table, LsmStats* stats, uint64_t start_key,
             bool use_cache);
    bool Valid() const {
      return block_ != nullptr && pos_ < block_->entries.size();
    }
    uint64_t key() const { return block_->entries[pos_].key; }
    std::string_view value() const { return block_->entries[pos_].value; }
    bool tombstone() const { return block_->entries[pos_].tombstone; }
    void Next();
    bool ok() const { return ok_; }

   private:
    void LoadBlock(size_t block_idx);

    const TableReader& table_;
    LsmStats* const stats_;
    const bool use_cache_;
    std::shared_ptr<const CachedBlock> block_;
    size_t block_idx_ = 0;
    size_t pos_ = 0;
    bool ok_ = true;
  };

  /// Cursor for a range [lo, hi] this table's filter allowed
  /// (RangeMultiProbe said "maybe"): a cache-aware Iterator at `lo`
  /// that also closes the loop on the probe. No entry in [lo, hi] means
  /// the filter's answer was a false positive (a tombstone confirms it
  /// — the key is in the table); a block that fails to read records no
  /// outcome, since the answer is unknown.
  Iterator RangeCursor(uint64_t lo, uint64_t hi, LsmStats* stats) const;

 private:
  TableReader() = default;

  struct IndexEntry {
    uint64_t last_key;
    uint64_t offset;
    uint64_t size;
  };

  /// Positioned read (pread) of [offset, offset+size) into `out`;
  /// thread-safe.
  bool ReadFileAt(uint64_t offset, uint64_t size, std::string* out) const;
  bool ReadBlockAt(size_t index_pos, std::string* buffer,
                   LsmStats* stats) const;
  /// Returns the parsed block at `index_pos`: from the shared cache
  /// when `use_cache` (reading and parsing, then caching, on a miss),
  /// else read and parsed directly. Null on I/O error or corruption.
  std::shared_ptr<const CachedBlock> GetBlock(size_t index_pos,
                                              LsmStats* stats,
                                              bool use_cache = true) const;
  /// Index position of the first block whose last_key >= key, or -1.
  int64_t FindBlock(uint64_t key) const;

  enum class Probe { kPoint, kRange };
  /// The outcome ledger: the only code that records filter outcomes.
  /// `negatives` probes the filter rejected (definite true negatives)
  /// and `false_positives` probes it allowed that the data blocks then
  /// rejected. Feeds both views: this table's filter_outcomes() and
  /// the per-level LsmStats arrays (cumulative, so they survive
  /// compaction). A probe the blocks confirmed, or whose block failed
  /// to read, is recorded nowhere. No-op when the table has no filter.
  void RecordOutcome(Probe probe, uint64_t negatives,
                     uint64_t false_positives, LsmStats* stats) const;

  std::FILE* file_ = nullptr;
  std::vector<IndexEntry> index_;
  std::unique_ptr<PointRangeFilter> filter_;
  std::shared_ptr<BlockCache> cache_;
  uint64_t table_id_ = 0;  // process-unique cache-key namespace
  uint64_t min_key_ = 0;
  uint64_t max_key_ = 0;
  uint64_t file_number_ = 0;  // manifest identity (0 = unknown)
  uint64_t file_size_ = 0;
  uint64_t num_tombstones_ = 0;  // footer count
  uint32_t level_ = 0;          // LSM level (set before sharing)
  std::string filter_backend_;  // registry name from the framed block
  // Per-table probe outcomes, indexed by Probe: relaxed, written only
  // by RecordOutcome.
  mutable std::atomic<uint64_t> negatives_[2]{};
  mutable std::atomic<uint64_t> false_positives_[2]{};
  std::string path_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_TABLE_READER_H_
