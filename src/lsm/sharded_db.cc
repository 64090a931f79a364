#include "lsm/sharded_db.h"

#include <algorithm>
#include <cassert>

namespace bloomrf {

ShardedDb::ShardedDb(ShardedDbOptions options) : options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.block_cache == nullptr && options_.block_cache_bytes > 0) {
    options_.block_cache =
        std::make_shared<BlockCache>(options_.block_cache_bytes);
  }
  // One subcompaction pool shared by every shard, sized for a single
  // shard's fan-out: shard compactions already run in parallel with
  // each other, so per-shard private pools would oversubscribe the
  // host num_shards-fold.
  const size_t subs = options_.max_subcompactions > 0
                          ? options_.max_subcompactions
                          : std::max<size_t>(1, options_.compaction_threads);
  options_.compaction_pool =
      subs > 1 ? std::make_shared<ThreadPool>(subs - 1) : nullptr;
  // One sampler per shard (each shard Db creates its own): the
  // adaptive loop tunes shard-local filters from shard-local traffic.
  options_.workload_sampler = nullptr;
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    const std::string suffix = "/shard-" + std::to_string(i);
    DbOptions shard_options = options_;  // slices off the shard knobs
    shard_options.dir += suffix;
    if (!shard_options.wal_dir.empty()) shard_options.wal_dir += suffix;
    shards_.push_back(std::make_unique<Db>(std::move(shard_options)));
  }
  size_t workers = options_.worker_threads > 0 ? options_.worker_threads
                                               : options_.num_shards;
  pool_ = std::make_unique<ThreadPool>(workers);
}

bool ShardedDb::AllShards(const std::function<bool(size_t)>& fn,
                          std::span<const size_t> only) {
  std::vector<char> ok(shards_.size(), 1);
  TaskGroup group(pool_.get());
  auto submit = [&](size_t s) {
    group.Submit([s, &fn, &ok] { ok[s] = fn(s) ? 1 : 0; });
  };
  if (only.empty()) {
    for (size_t s = 0; s < shards_.size(); ++s) submit(s);
  } else {
    for (size_t s : only) submit(s);
  }
  group.Wait();
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

bool ShardedDb::WriteBatch(std::span<const KV> kvs) {
  if (kvs.empty()) return true;
  if (shards_.size() == 1) return shards_[0]->WriteBatch(kvs);

  // Partition per shard, keeping batch order within a shard (KV views
  // stay valid: they point into the caller's batch for the whole call).
  std::vector<std::vector<KV>> sub(shards_.size());
  for (const KV& kv : kvs) sub[shard_of(kv.key)].push_back(kv);
  // Only shards with entries get a task: a small batch costs as many
  // pool hops as shards it touches.
  std::vector<size_t> touched;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!sub[s].empty()) touched.push_back(s);
  }
  return AllShards(
      [this, &sub](size_t s) { return shards_[s]->WriteBatch(sub[s]); },
      touched);
}

std::vector<std::optional<std::string>> ShardedDb::MultiGet(
    std::span<const uint64_t> keys) {
  std::vector<std::optional<std::string>> result(keys.size());
  if (keys.empty()) return result;
  if (shards_.size() == 1) return shards_[0]->MultiGet(keys);

  // Partition input positions per shard, keeping original order within
  // a shard so the scatter below is a linear walk.
  std::vector<std::vector<uint32_t>> idx(shards_.size());
  std::vector<std::vector<uint64_t>> sub(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t s = shard_of(keys[i]);
    idx[s].push_back(static_cast<uint32_t>(i));
    sub[s].push_back(keys[i]);
  }

  TaskGroup group(pool_.get());
  std::vector<std::vector<std::optional<std::string>>> answers(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (sub[s].empty()) continue;
    group.Submit([this, s, &sub, &answers] {
      answers[s] = shards_[s]->MultiGet(sub[s]);
    });
  }
  group.Wait();

  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t j = 0; j < idx[s].size(); ++j) {
      result[idx[s][j]] = std::move(answers[s][j]);
    }
  }
  return result;
}

std::vector<std::pair<uint64_t, std::string>> ShardedDb::RangeScan(
    uint64_t lo, uint64_t hi, size_t limit) {
  auto batches = ScanRange({&lo, 1}, {&hi, 1}, limit);
  return std::move(batches[0]);
}

std::vector<std::vector<std::pair<uint64_t, std::string>>>
ShardedDb::ScanRange(std::span<const uint64_t> los,
                     std::span<const uint64_t> his, size_t limit) {
  assert(los.size() == his.size());
  const size_t n = los.size();
  std::vector<std::vector<std::pair<uint64_t, std::string>>> results(n);
  if (n == 0) return results;
  if (shards_.size() == 1) return shards_[0]->ScanRange(los, his, limit);

  TaskGroup group(pool_.get());
  std::vector<std::vector<std::vector<std::pair<uint64_t, std::string>>>>
      per_shard(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    group.Submit([this, s, los, his, limit, &per_shard] {
      per_shard[s] = shards_[s]->ScanRange(los, his, limit);
    });
  }
  group.Wait();

  // Shards own disjoint key sets, so the per-range merge is a plain
  // sort of the concatenated rows. Each shard returned its own lowest
  // `limit` rows, so the union's lowest `limit` rows are all present.
  for (size_t i = 0; i < n; ++i) {
    auto& out = results[i];
    size_t total = 0;
    for (size_t s = 0; s < shards_.size(); ++s) total += per_shard[s][i].size();
    out.reserve(total);  // all rows are inserted before the sort+cut
    for (size_t s = 0; s < shards_.size(); ++s) {
      auto& rows = per_shard[s][i];
      out.insert(out.end(), std::make_move_iterator(rows.begin()),
                 std::make_move_iterator(rows.end()));
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (out.size() > limit) out.resize(limit);
  }
  return results;
}

bool ShardedDb::Flush() {
  // Seal + drain every shard in parallel: each shard's Flush waits for
  // its own background write, so running them on the pool overlaps the
  // SST I/O.
  return AllShards([this](size_t s) { return shards_[s]->Flush(); });
}

bool ShardedDb::WaitForFlush() {
  bool ok = true;
  for (auto& shard : shards_) ok &= shard->WaitForFlush();
  return ok;
}

bool ShardedDb::WaitForCompaction() {
  bool ok = true;
  for (auto& shard : shards_) ok &= shard->WaitForCompaction();
  return ok;
}

bool ShardedDb::CompactAll() {
  // Parallel like Flush: each shard's full merge is independent I/O.
  return AllShards([this](size_t s) { return shards_[s]->CompactAll(); });
}

bool ShardedDb::CompactRange(uint64_t begin, uint64_t end) {
  // Hash routing scatters every key range over all shards, so the
  // range compacts everywhere — each shard trims it to its own files
  // via the whole-file expansion in Db::CompactRange.
  return AllShards([this, begin, end](size_t s) {
    return shards_[s]->CompactRange(begin, end);
  });
}

LsmStats ShardedDb::TotalStats() const {
  LsmStats total;
  for (const auto& shard : shards_) total.Accumulate(shard->stats());
  return total;
}

void ShardedDb::ResetStats() {
  for (auto& shard : shards_) shard->ResetStats();
}

size_t ShardedDb::num_tables() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_tables();
  return total;
}

uint64_t ShardedDb::filter_memory_bits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->filter_memory_bits();
  return total;
}

}  // namespace bloomrf
