// Hash-sharded LSM engine: N independent Db shards behind one API.
//
// Keys are routed by a mixed hash of the key (Mix64 % num_shards), so
// each shard owns a disjoint key subset and runs its own memtable,
// seal/flush pipeline and SST set; all shards share one BlockCache and
// one FilterPolicy. Batch reads (MultiGet/ScanRange) and WriteBatch fan
// out per shard on a small reusable ThreadPool (reads are reassembled
// in input order), so the planned batch probes of every shard run
// genuinely in parallel. Point Put/Delete/Get route directly with no
// pool hop.
//
// Because sharding is by hash, a key range spans all shards: ScanRange
// sends the whole batch to every shard and merges the per-shard rows
// (disjoint keys, so the merge is a sort) up to the limit.
//
// Every public method is safe from any number of client threads; the
// per-shard Db provides snapshot reads and serialized writes.

#ifndef BLOOMRF_LSM_SHARDED_DB_H_
#define BLOOMRF_LSM_SHARDED_DB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace bloomrf {

/// Every DbOptions field applies to every shard (each shard Db gets a
/// copy), except that:
///  - `dir` holds one subdirectory per shard, dir/shard-i; `wal_dir`,
///    when set, likewise holds wal_dir/shard-i;
///  - `memtable_bytes` is per shard and defaults to 8 MiB (the engine
///    holds up to num_shards of these in memory, plus sealed ones
///    awaiting flush);
///  - one block cache serves all shards: a null `block_cache` is
///    created once with `block_cache_bytes` (default 32 MiB; 0
///    disables caching);
///  - ShardedDb owns `compaction_pool` and `workload_sampler`, and
///    overwrites any caller value: every shard gets ONE subcompaction
///    pool, sized for a single shard's fan-out, so concurrent shard
///    compactions queue their ranges rather than oversubscribing the
///    host num_shards-fold; and each shard (with sampling on) creates
///    its own sampler, so shard-local flushes and compactions tune
///    from shard-local traffic.
struct ShardedDbOptions : DbOptions {
  ShardedDbOptions() {
    memtable_bytes = 8ull << 20;
    block_cache_bytes = 32 << 20;
  }
  size_t num_shards = 8;
  /// Fan-out workers for batch APIs; 0 sizes the pool to num_shards.
  /// Callers of MultiGet/ScanRange also steal tasks while waiting, so
  /// even worker_threads == 0 with a 1-shard engine stays a plain
  /// inline call.
  size_t worker_threads = 0;
};

class ShardedDb {
 public:
  explicit ShardedDb(ShardedDbOptions options);

  size_t shard_of(uint64_t key) const {
    // Mix64 decorrelates the shard index from key order, so sequential
    // key ranges spread over all shards (and from the filters' own
    // hashes, which seed differently).
    return static_cast<size_t>(Mix64(key) % shards_.size());
  }

  bool Put(uint64_t key, std::string_view value) {
    return shards_[shard_of(key)]->Put(key, value);
  }
  bool Get(uint64_t key, std::string* value) {
    return shards_[shard_of(key)]->Get(key, value);
  }
  /// Deletes a key on its shard (tombstone semantics, see
  /// Db::WriteBatch).
  bool Delete(uint64_t key) { return shards_[shard_of(key)]->Delete(key); }

  /// Batched write: entries are partitioned per shard and each shard's
  /// sub-batch runs Db::WriteBatch (one WAL record + one memtable pass
  /// per shard) as one pool task, mirroring MultiGet's fan-out.
  /// Recovery applies each shard's sub-batch all-or-nothing — per
  /// shard, not across shards.
  bool WriteBatch(std::span<const KV> kvs);

  /// Batched point read, result[i] answering keys[i]. Keys are
  /// partitioned per shard, each shard's sub-batch runs Db::MultiGet
  /// (planned filter probes + block cache) as one pool task, and the
  /// answers are scattered back to input order.
  std::vector<std::optional<std::string>> MultiGet(
      std::span<const uint64_t> keys);

  /// Merged range scan over all shards (keys are hash-scattered, so
  /// every shard contributes to every range).
  std::vector<std::pair<uint64_t, std::string>> RangeScan(uint64_t lo,
                                                          uint64_t hi,
                                                          size_t limit = 1024);

  /// Batched range scan, result[i] answering [los[i], his[i]]. The
  /// whole batch goes to every shard in parallel (one planned
  /// RangeMultiProbe per SST per shard); per-range rows are merged
  /// across shards in key order up to `limit`.
  std::vector<std::vector<std::pair<uint64_t, std::string>>> ScanRange(
      std::span<const uint64_t> los, std::span<const uint64_t> his,
      size_t limit = 1024);

  /// Seals and drains every shard (in parallel). False if any flush
  /// failed.
  bool Flush();
  /// Drains already-queued background flushes on every shard.
  bool WaitForFlush();
  /// Waits until every shard's compaction triggers are satisfied (see
  /// Db::WaitForCompaction). False if any shard's compaction failed.
  bool WaitForCompaction();
  /// Manual full compaction of every shard (see Db::CompactAll). Works
  /// with background compaction on or off. The adaptive filter loop's
  /// "re-tune the whole tree now" lever.
  bool CompactAll();
  /// Manual compaction of [begin, end] on every shard (keys are
  /// hash-scattered, so the range touches all shards). See
  /// Db::CompactRange for the per-shard semantics.
  bool CompactRange(uint64_t begin, uint64_t end);

  size_t num_shards() const { return shards_.size(); }
  Db& shard(size_t i) { return *shards_[i]; }
  const Db& shard(size_t i) const { return *shards_[i]; }

  /// Sum of all shards' probe-cost counters.
  LsmStats TotalStats() const;
  /// Db::ResetStats on every shard: gauges keep their value.
  void ResetStats();
  size_t num_tables() const;
  uint64_t filter_memory_bits() const;
  const std::shared_ptr<BlockCache>& block_cache() const {
    return options_.block_cache;
  }

 private:
  /// Runs fn(s) as one pool task for every shard s (or only for the
  /// shards listed in `only`, when non-empty) and waits for all of
  /// them; true iff every call returned true.
  bool AllShards(const std::function<bool(size_t)>& fn,
                 std::span<const size_t> only = {});

  ShardedDbOptions options_;
  std::vector<std::unique_ptr<Db>> shards_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_SHARDED_DB_H_
