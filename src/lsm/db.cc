#include "lsm/db.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <unordered_set>

#include "lsm/merging_iterator.h"
#include "lsm/table_builder.h"

namespace bloomrf {

namespace {

/// Parses "<stem><number><suffix>" names, e.g. wal-12.log or 7.sst.
bool ParseNumberedFile(const std::string& name, const std::string& stem,
                       const std::string& suffix, uint64_t* number) {
  if (name.size() <= stem.size() + suffix.size()) return false;
  if (name.compare(0, stem.size(), stem) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::string digits =
      name.substr(stem.size(), name.size() - stem.size() - suffix.size());
  if (digits.empty()) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *number = value;
  return true;
}

/// All files in `dir` matching stem/suffix, sorted by number.
std::vector<std::pair<uint64_t, std::string>> ListNumberedFiles(
    const std::string& dir, const std::string& stem,
    const std::string& suffix) {
  std::vector<std::pair<uint64_t, std::string>> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t number;
    if (ParseNumberedFile(entry.path().filename().string(), stem, suffix,
                          &number)) {
      files.emplace_back(number, entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

Db::Db(DbOptions options) : options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (!options_.wal_dir.empty()) {
    std::filesystem::create_directories(options_.wal_dir, ec);
  }
  if (options_.block_cache == nullptr && options_.block_cache_bytes > 0) {
    options_.block_cache =
        std::make_shared<BlockCache>(options_.block_cache_bytes);
  }
  // Sampling is on when asked for explicitly or implied by an adaptive
  // policy; a caller-supplied sampler is honored either way.
  const bool wants_sampling =
      options_.sample_queries ||
      (options_.filter_policy != nullptr &&
       options_.filter_policy->WantsQueryFeedback());
  if (options_.workload_sampler == nullptr && wants_sampling) {
    options_.workload_sampler =
        std::make_shared<WorkloadSampler>(options_.sampler_period_log2);
  }
  sampler_ = options_.workload_sampler.get();
  compact_cfg_.l0_trigger = std::max<size_t>(2, options_.l0_compaction_trigger);
  compact_cfg_.level_base_bytes = std::max<uint64_t>(1, options_.level_base_bytes);
  compact_cfg_.level_multiplier =
      std::max<size_t>(2, options_.level_size_multiplier);
  compact_cfg_.max_levels =
      std::min<size_t>(64, std::max<size_t>(2, options_.max_levels));
  compact_cursors_.assign(compact_cfg_.max_levels, 0);
  subcompact_pool_ = options_.compaction_pool;
  if (subcompact_pool_ == nullptr) {
    // The merging thread itself works one range (TaskGroup::Wait
    // steals), so a fan-out of N needs N-1 pool workers.
    const size_t subs = EffectiveSubcompactions();
    subcompact_pool_ = std::make_shared<ThreadPool>(subs > 1 ? subs - 1 : 0);
  }
  Recover();
  active_ = versions_.Current()->active();
  if (options_.wal) RotateWal();
  flush_thread_ = std::thread([this] { FlushWorker(); });
  if (options_.compaction) {
    const size_t workers = std::max<size_t>(1, options_.compaction_threads);
    compact_threads_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
      compact_threads_.emplace_back([this] { CompactionWorker(); });
    }
  }
}

Db::~Db() {
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    stop_ = true;
  }
  flush_work_cv_.notify_all();
  flush_thread_.join();  // worker drains the queue before exiting
  if (!compact_threads_.empty()) {
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      compact_stop_ = true;
    }
    compact_work_cv_.notify_all();
    // Every worker finishes its in-flight job (subcompactions
    // included — the job blocks on its TaskGroup) before exiting, so
    // nothing leaks and no half-committed state survives.
    for (std::thread& worker : compact_threads_) worker.join();
    compact_threads_.clear();
  }
  if (wal_ != nullptr) {
    if (active_->empty()) {
      // Clean close with nothing unflushed: zero records went into the
      // current log since its rotation (appends and memtable inserts
      // travel together), so it is empty — remove the litter.
      std::string path = wal_->path();
      wal_.reset();
      env_->DeleteFile(path);
    } else {
      // Push any OS-buffered WAL bytes down so a clean close is
      // recoverable even without wal_fsync.
      wal_->Sync();
    }
  }
}

void Db::QuarantineTable(const std::string& path, const char* why) {
  env_->RenameFile(path, path + ".corrupt");
  ++stats_.tables_quarantined;
  ++recovery_stats_.tables_quarantined;
  stats_.SetLastError(std::string("recover: quarantined ") + why + " " +
                      path);
}

std::vector<Version::TableList> Db::OpenTablesFromManifest(
    const ManifestState& state, uint64_t* max_file_seen) {
  std::vector<Version::TableList> levels(
      std::max<size_t>(1, state.levels.size()));
  for (size_t level = 0; level < state.levels.size(); ++level) {
    for (const FileMeta& meta : state.levels[level]) {
      *max_file_seen = std::max(*max_file_seen, meta.file_number);
      std::string path = SstPath(meta.file_number);
      auto reader =
          TableReader::Open(path, options_.filter_policy.get(), &stats_,
                            options_.block_cache, meta.file_number);
      if (reader == nullptr) {
        // A manifest-referenced SST was fsynced before the manifest
        // record existed, so this is real corruption (or deletion by
        // hand), not a torn flush: move it aside and keep serving the
        // rest of the tree.
        QuarantineTable(path, "unreadable");
        continue;
      }
      reader->set_level(static_cast<uint32_t>(level));
      levels[level].push_back(std::move(reader));
      ++recovery_stats_.tables_loaded;
    }
  }
  return levels;
}

void Db::Recover() {
  // Transient staging litter from a previous life (crash between a
  // tmp-file write and its rename) is never referenced by anything:
  // delete it before it can shadow real files.
  {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.dir, ec)) {
      if (entry.path().extension() == ".tmp") {
        env_->DeleteFile(entry.path().string());
      }
    }
  }

  // Manifest first: CURRENT names the live one; a missing or torn
  // CURRENT falls back to the newest manifest holding any decodable
  // edits.
  ManifestState state;
  bool have_manifest = false;
  uint64_t manifest_number = ReadCurrentManifestNumber(options_.dir);
  uint64_t max_manifest_seen = manifest_number;
  if (manifest_number != 0 &&
      env_->FileExists(ManifestFileName(options_.dir, manifest_number))) {
    ManifestReplay(ManifestFileName(options_.dir, manifest_number), &state);
    have_manifest = true;
  }
  auto manifests = ListNumberedFiles(options_.dir, "MANIFEST-", "");
  if (!manifests.empty()) {
    max_manifest_seen = std::max(max_manifest_seen, manifests.back().first);
  }
  if (!have_manifest) {
    for (auto it = manifests.rbegin(); it != manifests.rend(); ++it) {
      ManifestState candidate;
      ManifestReplay(it->second, &candidate);
      if (candidate.edits > 0) {
        state = std::move(candidate);
        manifest_number = it->first;
        have_manifest = true;
        break;
      }
    }
  }
  recovery_stats_.manifest_edits_replayed = state.edits;
  recovery_stats_.manifest_clean = state.clean;

  uint64_t max_file = 0;
  std::vector<Version::TableList> levels =
      OpenTablesFromManifest(state, &max_file);
  // SSTs on disk but absent from the manifest were written durably
  // and then orphaned by a crash before their manifest edit landed;
  // their WAL files survived (deletion follows the edit), so the data
  // returns through replay below. Remove the orphans. With no manifest
  // at all nothing says which level or recency a table had (compaction
  // outputs carry higher numbers than the newer L0 data above them),
  // so none can be served safely: quarantine them all instead. Either
  // way the numbers stay burned, so a reused number can never pair a
  // stale file with a new manifest entry.
  std::unordered_set<uint64_t> referenced;
  for (const auto& level : state.levels) {
    for (const FileMeta& meta : level) referenced.insert(meta.file_number);
  }
  for (const auto& [number, path] :
       ListNumberedFiles(options_.dir, "", ".sst")) {
    max_file = std::max(max_file, number);
    if (referenced.count(number) != 0) continue;
    if (have_manifest) {
      env_->DeleteFile(path);
    } else {
      QuarantineTable(path, "no manifest references");
    }
  }
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    versions_.Publish(Version::FromLevels(std::move(levels)));
  }
  UpdateTombstonesLive();
  next_file_number_.store(std::max(state.next_file_number, max_file + 1),
                          std::memory_order_relaxed);
  flushed_through_log_ = state.log_number;
  next_manifest_number_ = max_manifest_seen + 1;

  // Every open starts a fresh snapshot manifest, so recovery work
  // (quarantines, orphan cleanup) is captured durably and old
  // manifests never grow without bound. Failure (unwritable directory)
  // is tolerated: the store runs, flushes will keep failing until the
  // disk heals, and last_error says why.
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    if (WriteManifestSnapshotLocked(*versions_.Current())) {
      for (const auto& [number, path] : manifests) {
        if (number != manifest_->number()) env_->DeleteFile(path);
      }
    }
  }

  // WAL replay: logs the manifest proved flushed are deleted unread; a
  // crash between a flush's manifest commit and its log deletion just
  // leaves them here for us. Every surviving newer log replays oldest
  // first into the fresh active memtable, so overwrites re-apply in
  // original order and the memtable ends bit-identical to the
  // pre-crash one.
  auto logs = ListNumberedFiles(WalDirPath(), "wal-", ".log");
  uint64_t max_log = state.log_number;
  auto* active = versions_.Current()->active().get();
  for (const auto& [number, path] : logs) {
    if (number <= state.log_number) {
      env_->DeleteFile(path);
      ++recovery_stats_.wal_files_skipped;
      continue;
    }
    max_log = std::max(max_log, number);
    WalReplayResult replay = WalReplay(
        path, [active](uint64_t key, std::string_view value, bool is_delete) {
          if (is_delete) {
            active->Delete(key);
          } else {
            active->Put(key, value);
          }
        });
    ++recovery_stats_.wal_files_replayed;
    recovery_stats_.wal_records_replayed += replay.records;
    recovery_stats_.wal_entries_replayed += replay.entries;
    recovery_stats_.wal_clean &= replay.clean;
  }
  // The replayed data is only covered by the logs it came from: keep
  // them until the memtable holding it flushes (active_max_log_ rides
  // into the next seal's max_log).
  next_wal_number_ = max_log + 1;
  active_max_log_ = max_log;
}

bool Db::WriteManifestSnapshotLocked(const Version& v) {
  const uint64_t number = next_manifest_number_++;
  auto writer = std::make_unique<ManifestWriter>(env_, options_.dir, number);
  VersionEdit snap;
  snap.SetLogNumber(flushed_through_log_);
  snap.SetNextFileNumber(next_file_number_.load(std::memory_order_relaxed));
  const auto& levels = v.levels();
  for (size_t level = 0; level < levels.size(); ++level) {
    for (const auto& table : levels[level]) {
      FileMeta meta;
      meta.file_number = table->file_number();
      meta.smallest = table->min_key();
      meta.largest = table->max_key();
      meta.file_bytes = table->file_size();
      snap.added.emplace_back(static_cast<uint32_t>(level), meta);
    }
  }
  if (!writer->ok() || !writer->Append(snap) ||
      !SetCurrentFile(env_, options_.dir, number)) {
    env_->DeleteFile(ManifestFileName(options_.dir, number));
    stats_.SetLastError("manifest: snapshot rewrite failed");
    // Back off the size trigger so a persistently failing rewrite is
    // not re-attempted on every subsequent edit; a broken live
    // manifest still forces a retry each time.
    if (manifest_ != nullptr && manifest_->ok()) {
      manifest_rewrite_limit_ = std::max<uint64_t>(
          manifest_rewrite_limit_ * 2, manifest_->bytes_written() * 2);
    }
    return false;
  }
  const uint64_t old_number = manifest_ != nullptr ? manifest_->number() : 0;
  manifest_ = std::move(writer);
  manifest_rewrite_limit_ = std::max<uint64_t>(
      options_.manifest_rewrite_bytes, manifest_->bytes_written() + 1);
  ++stats_.manifest_rewrites;
  if (old_number != 0) {
    env_->DeleteFile(ManifestFileName(options_.dir, old_number));
  }
  return true;
}

bool Db::AppendManifestEdit(const VersionEdit& edit, const Version& post) {
  if (manifest_ != nullptr && manifest_->ok() &&
      manifest_->bytes_written() < manifest_rewrite_limit_) {
    if (manifest_->Append(edit)) {
      ++stats_.manifest_appends;
      return true;
    }
    stats_.SetLastError("manifest: append failed on " + manifest_->path());
  }
  // Broken or oversized: self-heal by starting a fresh manifest whose
  // one record snapshots the post-edit state.
  return WriteManifestSnapshotLocked(post);
}

void Db::RotateWal() {
  uint64_t number = next_wal_number_++;
  wal_ = std::make_unique<WalWriter>(
      WalDirPath() + "/wal-" + std::to_string(number) + ".log",
      options_.wal_fsync, &stats_, env_);
  active_max_log_ = number;
}

void Db::DeleteLogsThrough(uint64_t max_log) {
  if (max_log == 0) return;
  for (const auto& [number, path] :
       ListNumberedFiles(WalDirPath(), "wal-", ".log")) {
    if (number <= max_log) env_->DeleteFile(path);
  }
}

bool Db::Put(uint64_t key, std::string_view value) {
  const KV kv{key, value};
  return WriteBatch({&kv, 1});
}

bool Db::Delete(uint64_t key) {
  const KV kv{key, {}, /*is_delete=*/true};
  return WriteBatch({&kv, 1});
}

bool Db::WriteBatch(std::span<const KV> kvs) {
  if (kvs.empty()) return true;
  bool ok = true;
  uint64_t bytes;
  {
    // Shared section: writers run concurrently with each other; only
    // the seal swap excludes them. Logging and inserting under the
    // same shared hold pins the record to the memtable generation —
    // rotation can never slip between them.
    std::shared_lock<std::shared_mutex> seal_lock(seal_mu_);
    if (wal_ != nullptr) {
      // Reused per thread so the hot path does not allocate a fresh
      // record buffer on every Put.
      thread_local std::string record;
      WalEncodeRecordTo(kvs, &record);
      ok = wal_->Append(record);
    }
    for (const KV& kv : kvs) {
      if (kv.is_delete) {
        active_->Delete(kv.key);
      } else {
        active_->Put(kv.key, kv.value);
      }
    }
    bytes = active_->ApproximateBytes();
  }
  if (bytes >= options_.memtable_bytes) {
    if (!SealActive(/*force=*/false)) ok = false;
  }
  return ok;
}

bool Db::SealActive(bool force) {
  QueuedFlush entry;
  {
    std::unique_lock<std::shared_mutex> seal_lock(seal_mu_);
    if (active_->empty()) return true;
    if (!force && active_->ApproximateBytes() < options_.memtable_bytes) {
      return true;  // a concurrent sealer won; fresh memtable in place
    }
    auto fresh = std::make_shared<MemTable>();
    {
      // One publication swaps in the fresh active memtable and records
      // the old one as sealed, so no reader interleaving can miss it.
      std::lock_guard<std::mutex> lock(version_mu_);
      versions_.Publish(versions_.Current()->WithSealedActive(fresh));
    }
    entry.mem = active_;
    entry.max_log = active_max_log_;
    active_ = std::move(fresh);
    if (options_.wal) RotateWal();
  }
  bool pending_failure = false;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_queue_.push_back(std::move(entry));
    // A previously failed flush parks the worker; sealing counts as a
    // retry trigger too, so a Put-only application self-recovers once
    // the disk heals — and hears about the failure (return false)
    // instead of growing the queue silently forever.
    if (flush_error_) {
      flush_error_ = false;
      pending_failure = true;
    }
  }
  flush_work_cv_.notify_one();
  return !pending_failure;
}

std::shared_ptr<const TableReader> Db::WriteSst(const MemTable& mem,
                                                FileMeta* meta) {
  auto entries = mem.Snapshot();
  TableBuilder builder(options_.filter_policy.get(), options_.block_size);
  FilterFeedback feedback;
  if (sampler_ != nullptr) {
    // Hand the policy what the loop has learned: the live workload
    // sketch and the measured FPR of every backend currently serving.
    feedback = CollectFilterFeedback();
    FilterBuildContext ctx;
    ctx.sampler = sampler_;
    ctx.feedback = &feedback;
    ctx.level = 0;
    ctx.table_keys = entries.size();
    builder.SetFilterContext(ctx);
  }
  for (const ScanEntry& e : entries) builder.Add(e.key, e.value, e.tombstone);
  const uint64_t file_number =
      next_file_number_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = SstPath(file_number);
  TableBuildStats build_stats;
  // WriteTo stages path.tmp, fsyncs, renames and fsyncs the directory:
  // the SST is durable before any manifest record can reference it.
  if (!builder.WriteTo(env_, path, &build_stats)) {
    stats_.SetLastError("flush: cannot write " + path);
    return nullptr;
  }
  std::unique_ptr<TableReader> opened =
      TableReader::Open(path, options_.filter_policy.get(), &stats_,
                        options_.block_cache, file_number);
  if (opened == nullptr) {
    stats_.SetLastError("flush: cannot reopen " + path);
    env_->DeleteFile(path);
    return nullptr;
  }
  opened->set_level(0);  // flush outputs land at L0
  std::shared_ptr<const TableReader> reader = std::move(opened);
  meta->file_number = file_number;
  meta->smallest = reader->min_key();
  meta->largest = reader->max_key();
  meta->entries = build_stats.num_entries;
  meta->file_bytes = build_stats.file_bytes;
  stats_.tombstones_written += build_stats.num_tombstones;
  {
    std::lock_guard<std::mutex> lock(flush_stats_mu_);
    flush_stats_.filter_create_seconds += build_stats.filter_create_seconds;
    flush_stats_.filter_block_bytes += build_stats.filter_block_bytes;
    ++flush_stats_.sst_files;
  }
  return reader;
}

bool Db::FlushSealed(const QueuedFlush& entry) {
  // The sealed memtable is dropped from the Version only once the SST
  // is written AND its manifest edit is durable; a failed flush keeps
  // the data queryable from the Version's sealed list (and its WAL on
  // disk).
  FileMeta meta;
  auto table = WriteSst(*entry.mem, &meta);
  if (table == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    auto next = versions_.Current()->WithFlushed(entry.mem.get(), table);
    VersionEdit edit;
    edit.SetLogNumber(std::max(flushed_through_log_, entry.max_log));
    edit.SetNextFileNumber(next_file_number_.load(std::memory_order_relaxed));
    edit.added.emplace_back(0, meta);
    // Advance before the append so a self-healing snapshot rewrite
    // inside AppendManifestEdit records the post-flush log coverage.
    const uint64_t prev_flushed = flushed_through_log_;
    flushed_through_log_ = std::max(flushed_through_log_, entry.max_log);
    if (!AppendManifestEdit(edit, *next)) {
      // The flush is not durable without its edit: a crash now would
      // orphan the SST while recovery replays the WAL — fine — but
      // deleting the WAL below would not be. Undo and retry later.
      flushed_through_log_ = prev_flushed;
      env_->DeleteFile(table->path());
      return false;
    }
    versions_.Publish(std::move(next));
  }
  UpdateTombstonesLive();
  // The memtable's data now lives in a manifest-committed SST: every
  // log up to its rotation point is obsolete (newer memtables only
  // touch newer logs, by the rotation-under-exclusive-seal invariant).
  DeleteLogsThrough(entry.max_log);
  MaybeScheduleCompaction();
  return true;
}

void Db::FlushWorker() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    // Park while idle — and also after a failure, instead of
    // hot-looping against a broken disk: only a drain call (which
    // clears flush_error_) or shutdown triggers the retry.
    flush_work_cv_.wait(lock, [this] {
      return stop_ || (!flush_queue_.empty() && !flush_error_);
    });
    if (flush_queue_.empty()) {
      if (stop_) return;
      continue;
    }
    if (flush_error_ && !stop_) continue;  // parked until a retry trigger
    flush_error_ = false;                  // shutdown: one final retry
    QueuedFlush entry = flush_queue_.front();  // queued until success
    lock.unlock();
    bool ok = FlushSealed(entry);
    lock.lock();
    if (ok) {
      flush_queue_.pop_front();
    } else {
      flush_error_ = true;
      // Shutdown cannot wait for the disk to heal: give this memtable
      // up so the destructor's join terminates. With the WAL on
      // nothing is lost — its log survives (deletion only follows a
      // successful flush) and the next open replays it.
      if (stop_) flush_queue_.pop_front();
    }
    flush_done_cv_.notify_all();
  }
}

bool Db::Flush() {
  bool sealed_ok = SealActive(/*force=*/true);
  return WaitForFlush() && sealed_ok;
}

bool Db::WaitForFlush() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  if (flush_error_) {
    // One retry per drain call; the flag comes back if it fails again.
    flush_error_ = false;
    flush_work_cv_.notify_all();
  }
  flush_done_cv_.wait(lock,
                      [this] { return flush_queue_.empty() || flush_error_; });
  return !flush_error_;
}

void Db::MaybeScheduleCompaction() {
  if (compact_threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compact_requested_ = true;
  }
  compact_work_cv_.notify_all();
}

size_t Db::EffectiveSubcompactions() const {
  if (options_.max_subcompactions > 0) return options_.max_subcompactions;
  return std::max<size_t>(1, options_.compaction_threads);
}

void Db::MergeRange(const CompactionJob& job, const TombstoneShadow& shadow,
                    const FilterBuildContext* build_ctx, uint64_t lo,
                    uint64_t hi, SubcompactionResult* result) {
  // Merge the inputs restricted to [lo, hi]; the job orders them
  // newest first, so the newest version of each key wins. The ranges
  // partition the key space, so every version of a key is merged by
  // exactly one subcompaction and per-key semantics are identical to
  // the serial merge. Direct block reads: a compaction sweep must not
  // wash the shared cache's hot read-path blocks out.
  MergingIterator merge;
  for (const auto& table : job.inputs) {
    merge.Add(
        TableReader::Iterator(*table, &stats_, lo, /*use_cache=*/false));
  }

  // Split outputs near half the level's base budget so deeper levels
  // hold several disjoint files and later compactions can pick them
  // one at a time.
  const uint64_t target_file_bytes =
      std::max<uint64_t>(1, compact_cfg_.level_base_bytes / 2);
  std::unique_ptr<TableBuilder> builder;

  auto finish_output = [&]() -> bool {
    const uint64_t file_number =
        next_file_number_.fetch_add(1, std::memory_order_relaxed);
    const std::string path = SstPath(file_number);
    const uint64_t entries = builder->num_entries();
    TableBuildStats build_stats;
    if (!builder->WriteTo(env_, path, &build_stats)) {
      result->error = "compact: cannot write " + path;
      return false;
    }
    result->tombstones_written += build_stats.num_tombstones;
    result->paths.push_back(path);
    auto reader =
        TableReader::Open(path, options_.filter_policy.get(), &stats_,
                          options_.block_cache, file_number);
    if (reader == nullptr) {
      result->error = "compact: cannot reopen " + path;
      return false;
    }
    reader->set_level(static_cast<uint32_t>(job.output_level));
    FileMeta meta;
    meta.file_number = file_number;
    meta.smallest = reader->min_key();
    meta.largest = reader->max_key();
    meta.entries = entries;
    meta.file_bytes = build_stats.file_bytes;
    result->metas.push_back(meta);
    result->outputs.push_back(std::move(reader));
    result->bytes_written += build_stats.file_bytes;
    builder.reset();
    return true;
  };

  for (; merge.Valid() && merge.key() <= hi; merge.Next()) {
    // A source that failed to read may hide a newer version of any key
    // from here on: nothing past this point can be trusted.
    if (!merge.ok()) break;
    const uint64_t key = merge.key();
    const bool tombstone = merge.tombstone();
    if (tombstone && !shadow.Covers(key)) {
      // Bottom-most eligible level for this key: nothing below the
      // output can hold an older value, so the deletion has finished
      // its job and the key disappears physically.
      ++result->tombstones_dropped;
    } else {
      if (builder == nullptr) {
        builder = std::make_unique<TableBuilder>(options_.filter_policy.get(),
                                                 options_.block_size);
        if (build_ctx != nullptr) builder->SetFilterContext(*build_ctx);
      }
      builder->Add(key, merge.value(), tombstone);
    }
    if (builder != nullptr &&
        builder->ApproximateBytes() >= target_file_bytes) {
      if (!finish_output()) return;
    }
  }
  if (!merge.ok()) {
    result->error = "compact: input read error";
    return;
  }
  if (builder != nullptr && builder->num_entries() > 0) {
    if (!finish_output()) return;
  }
  result->ok = true;
}

bool Db::RunCompaction(const CompactionJob& job) {
  const auto start_time = std::chrono::steady_clock::now();
  ++stats_.compactions_inflight;
  struct InflightGauge {
    std::atomic<uint64_t>& gauge;
    ~InflightGauge() { --gauge; }
  } inflight_gauge{stats_.compactions_inflight};

  // Tombstone lifecycle: a winning tombstone still shadows (the
  // merge's duplicate-dropping buries the older values), and is itself
  // dropped from the output iff no level below the output can hold its
  // key. One snapshot of the shadow bounds serves every subcompaction
  // of the job — see TombstoneShadow for why the snapshot stays
  // conservative under concurrent disjoint-level jobs.
  const TombstoneShadow shadow =
      TombstoneShadow::FromVersion(*versions_.Current(), job);
  uint64_t bytes_read = 0;
  for (const auto& table : job.inputs) bytes_read += table->file_size();

  // Re-tuning seam of the adaptive loop: every compaction output is
  // rebuilt through the policy with the workload sketch and measured
  // FPRs as they stand now, so the tree's filters follow the workload
  // as compaction naturally rewrites tables. One feedback snapshot is
  // shared read-only across the subcompactions.
  FilterFeedback feedback;
  FilterBuildContext build_ctx;
  if (sampler_ != nullptr) {
    feedback = CollectFilterFeedback();
    build_ctx.sampler = sampler_;
    build_ctx.feedback = &feedback;
    build_ctx.level = static_cast<uint32_t>(job.output_level);
  }
  const FilterBuildContext* ctx = sampler_ != nullptr ? &build_ctx : nullptr;

  // Range-partition the job: each range merges on its own worker
  // (the calling thread steals one), writes its own outputs, and all
  // outputs commit below in ONE manifest edit. Small jobs stay serial.
  size_t fan_out = EffectiveSubcompactions();
  if (bytes_read < options_.subcompaction_min_bytes) fan_out = 1;
  const auto ranges = PickSubcompactionRanges(job, fan_out);
  std::vector<SubcompactionResult> results(ranges.size());
  if (ranges.size() == 1) {
    MergeRange(job, shadow, ctx, 0, UINT64_MAX, &results[0]);
  } else {
    TaskGroup group(subcompact_pool_.get());
    for (size_t i = 0; i < ranges.size(); ++i) {
      group.Submit([this, &job, &shadow, ctx, &ranges, &results, i] {
        MergeRange(job, shadow, ctx, ranges[i].first, ranges[i].second,
                   &results[i]);
      });
    }
    group.Wait();
    stats_.subcompactions_run += ranges.size();
  }

  auto fail = [&](const std::string& msg) {
    stats_.SetLastError(msg);
    ++stats_.compaction_failures;
    for (const auto& result : results) {
      for (const auto& path : result.paths) env_->DeleteFile(path);
    }
    return false;
  };
  for (const auto& result : results) {
    if (!result.ok) {
      return fail(result.error.empty() ? "compact: subcompaction failed"
                                       : result.error);
    }
  }

  // Fold in range order: the ranges are ascending and disjoint, so the
  // concatenated outputs are key-sorted — which the manifest edit must
  // preserve (recovery rebuilds each level in edit order).
  Version::TableList outputs;
  std::vector<FileMeta> output_meta;
  uint64_t bytes_written = 0;
  uint64_t tombstones_written = 0;
  uint64_t tombstones_dropped = 0;
  for (auto& result : results) {
    for (auto& table : result.outputs) outputs.push_back(std::move(table));
    output_meta.insert(output_meta.end(), result.metas.begin(),
                       result.metas.end());
    bytes_written += result.bytes_written;
    tombstones_written += result.tombstones_written;
    tombstones_dropped += result.tombstones_dropped;
  }

  // Commit: one manifest edit (deletes + adds) made durable before the
  // Version swap publishes it. Input files are unlinked only after the
  // publication; readers holding an older Version keep them open (and
  // POSIX keeps unlinked-but-open files readable).
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    auto next = versions_.Current()->WithCompaction(
        job.input_files, job.output_level, outputs);
    VersionEdit edit;
    edit.SetNextFileNumber(next_file_number_.load(std::memory_order_relaxed));
    edit.deleted = job.input_files;
    for (const FileMeta& meta : output_meta) {
      edit.added.emplace_back(static_cast<uint32_t>(job.output_level), meta);
    }
    if (!AppendManifestEdit(edit, *next)) {
      return fail("compact: manifest append failed");
    }
    versions_.Publish(std::move(next));
  }
  UpdateTombstonesLive();
  ++stats_.compactions;
  stats_.tombstones_written += tombstones_written;
  stats_.tombstones_dropped += tombstones_dropped;
  stats_.compaction_bytes_read += bytes_read;
  stats_.compaction_bytes_written += bytes_written;
  const size_t bucket =
      LsmStats::StatsLevel(static_cast<uint32_t>(job.output_level));
  stats_.compaction_bytes_read_level[bucket] += bytes_read;
  stats_.compaction_bytes_written_level[bucket] += bytes_written;
  stats_.compaction_micros_level[bucket] += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time)
          .count());
  for (const auto& table : job.inputs) env_->DeleteFile(table->path());
  return true;
}

void Db::CompactionWorker() {
  // One of N identical scheduler workers: pick a job whose level pair
  // is unclaimed, claim it, run it unlocked, release. Workers with
  // nothing pickable park on the epoch counter, which every completion
  // (and the manual-compaction handover) bumps — so a claim release
  // that frees a pickable level pair wakes them without busy-spinning.
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (!compact_stop_) {
    if (!compact_requested_ || compact_error_ || manual_compact_active_) {
      const uint64_t seen = compact_epoch_;
      compact_work_cv_.wait(lock, [this, seen] {
        return compact_stop_ || compact_epoch_ != seen ||
               (compact_requested_ && !compact_error_ &&
                !manual_compact_active_);
      });
      continue;
    }
    auto job = PickCompaction(*versions_.Current(), compact_cfg_,
                              &compact_cursors_, compact_busy_levels_);
    if (!job.has_value()) {
      if (compact_inflight_ == 0) {
        // Nothing pickable and nothing running: the tree is drained.
        compact_requested_ = false;
        compact_done_cv_.notify_all();
        continue;
      }
      // In-flight jobs may uncover new work (or new free levels) when
      // they finish; park until one does.
      const uint64_t seen = compact_epoch_;
      compact_work_cv_.wait(lock, [this, seen] {
        return compact_stop_ || compact_epoch_ != seen;
      });
      continue;
    }
    const uint64_t claim = CompactionClaimBits(*job);
    compact_busy_levels_ |= claim;
    ++compact_inflight_;
    lock.unlock();
    const bool ok = RunCompaction(*job);
    lock.lock();
    compact_busy_levels_ &= ~claim;
    --compact_inflight_;
    ++compact_epoch_;
    if (ok) {
      compact_backoff_.Reset();
      // Re-pick from the freshest Version: this job's output may have
      // pushed the next level over budget, and a flush that landed
      // mid-job is folded into the next pick.
      compact_requested_ = true;
      compact_work_cv_.notify_all();
      compact_done_cv_.notify_all();
      continue;
    }
    if (compact_stop_) break;
    // Sticky error: waiters see it, other workers park. This worker
    // owns the backoff retry timer; expiry clears the error and
    // re-requests work.
    compact_error_ = true;
    compact_work_cv_.notify_all();
    compact_done_cv_.notify_all();
    compact_work_cv_.wait_for(lock, compact_backoff_.Next(), [this] {
      return compact_stop_ || !compact_error_;
    });
    if (!compact_stop_ && compact_error_) {
      compact_error_ = false;
      compact_requested_ = true;
      compact_work_cv_.notify_all();
    }
  }
}

bool Db::WaitForCompaction() {
  if (compact_threads_.empty()) return true;
  std::unique_lock<std::mutex> lock(compact_mu_);
  compact_error_ = false;  // this call doubles as the retry trigger
  compact_requested_ = true;
  compact_work_cv_.notify_all();
  // Drained means: no pending request, no job in flight on any worker
  // (subcompaction workers finish inside their job's RunCompaction),
  // and no manual CompactRange holding the tree.
  compact_done_cv_.wait(lock, [this] {
    return compact_error_ ||
           (!compact_requested_ && compact_inflight_ == 0 &&
            !manual_compact_active_);
  });
  return !compact_error_;
}

bool Db::CompactRange(uint64_t begin, uint64_t end) {
  if (begin > end) return true;
  if (!Flush()) return false;

  // Take the manual slot: concurrent CompactRange calls serialize on
  // it, background workers stop picking while it is held, and we wait
  // out their in-flight jobs so the Version we snapshot is the one the
  // merge runs against.
  {
    std::unique_lock<std::mutex> lock(compact_mu_);
    compact_done_cv_.wait(lock, [this] { return !manual_compact_active_; });
    manual_compact_active_ = true;
    ++compact_epoch_;
    compact_work_cv_.notify_all();
    compact_done_cv_.wait(lock, [this] { return compact_inflight_ == 0; });
  }

  auto version = versions_.Current();

  // Fixpoint expansion to whole-file boundaries: a file overlapping
  // [lo, hi] pulls its own bounds into the range, which may overlap
  // further files, and so on. Without it the output (clamped at the
  // deepest level) could overlap non-input files there, or bury newer
  // un-compacted values under older ones.
  uint64_t lo = begin, hi = end;
  for (bool grew = true; grew;) {
    grew = false;  // the walk keeps its [lo, hi]; growth shows next pass
    version->ForEachTable(lo, hi, [&](size_t, const auto& table) {
      if (table->min_key() < lo || table->max_key() > hi) grew = true;
      lo = std::min(lo, table->min_key());
      hi = std::max(hi, table->max_key());
      return true;
    });
  }

  // Inputs in read precedence order: the merge resolves duplicate keys
  // to the lowest index. Everything lands at the deepest input level
  // (the last input's; floor L1 — L0 files overlap), capped at the tree
  // depth, so a full-range call digs the data all the way down and
  // maximizes tombstone drops.
  CompactionJob job;
  AddOverlapping(*version, 0, SIZE_MAX, lo, hi, &job);
  const size_t deepest =
      job.input_files.empty() ? 0 : job.input_files.back().first;
  job.output_level =
      std::min(std::max<size_t>(1, deepest), compact_cfg_.max_levels - 1);

  bool ok = true;
  if (!job.inputs.empty()) ok = RunCompaction(job);

  // Hand the tree back: bump the epoch so parked workers re-check, and
  // re-request a background pass over the reshaped tree.
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    manual_compact_active_ = false;
    ++compact_epoch_;
    if (!compact_threads_.empty()) compact_requested_ = true;
  }
  compact_work_cv_.notify_all();
  compact_done_cv_.notify_all();
  return ok;
}

bool Db::CompactAll() { return CompactRange(0, UINT64_MAX); }

FilterFeedback Db::CollectFilterFeedback() const {
  FilterFeedback feedback;
  versions_.Current()->ForEachTable(0, UINT64_MAX, [&](size_t,
                                                        const auto& table) {
    if (table->filter() != nullptr && !table->filter_backend().empty()) {
      *feedback.FindOrAdd(table->filter_backend()) += table->filter_outcomes();
    }
    return true;
  });
  return feedback;
}

bool Db::Get(uint64_t key, std::string* value) {
  if (sampler_ != nullptr) sampler_->RecordPoint(key);
  auto version = versions_.Current();
  // Newest-first walk; the FIRST entry found for the key decides. A
  // tombstone is a definite "deleted" — falling through to an older
  // source would resurrect the key.
  Lookup found = Lookup::kMiss;
  version->ForEachMemTable([&](const MemTable& mem) {
    found = mem.Find(key, value);
    return found == Lookup::kMiss;
  });
  if (found == Lookup::kMiss) {
    version->ForEachTable(key, key, [&](size_t, const auto& table) {
      found = table->Find(key, value, &stats_);
      return found == Lookup::kMiss;
    });
  }
  return found == Lookup::kHit;
}

std::vector<std::optional<std::string>> Db::MultiGet(
    std::span<const uint64_t> keys) {
  std::vector<std::optional<std::string>> result(keys.size());
  if (keys.empty()) return result;
  if (sampler_ != nullptr) sampler_->RecordPoints(keys);

  auto version = versions_.Current();

  // One states/values pair is chained through every source newest-
  // first, so each probes only keys no newer source resolved (a
  // tombstone resolves like a hit: no older source can resurrect it).
  std::vector<Lookup> states(keys.size(), Lookup::kMiss);
  std::vector<std::string> values(keys.size());
  size_t remaining = keys.size();
  version->ForEachMemTable([&](const MemTable& mem) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (states[i] != Lookup::kMiss) continue;
      states[i] = mem.Find(keys[i], &values[i]);
      if (states[i] != Lookup::kMiss) --remaining;
    }
    return remaining > 0;
  });
  if (remaining > 0) {
    const auto [lo_it, hi_it] = std::minmax_element(keys.begin(), keys.end());
    version->ForEachTable(*lo_it, *hi_it, [&](size_t, const auto& table) {
      remaining -= table->MultiGet(keys, states.data(), values.data(), &stats_);
      return remaining > 0;
    });
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (states[i] == Lookup::kHit) result[i] = std::move(values[i]);
  }
  return result;
}

std::vector<std::pair<uint64_t, std::string>> Db::RangeScan(uint64_t lo,
                                                            uint64_t hi,
                                                            size_t limit) {
  return std::move(ScanRange({&lo, 1}, {&hi, 1}, limit)[0]);
}

std::vector<std::vector<std::pair<uint64_t, std::string>>> Db::ScanRange(
    std::span<const uint64_t> los, std::span<const uint64_t> his,
    size_t limit) {
  assert(los.size() == his.size());
  const size_t n = los.size();
  std::vector<std::vector<std::pair<uint64_t, std::string>>> results(n);
  if (n == 0) return results;
  if (sampler_ != nullptr) sampler_->RecordRanges(los, his);

  auto version = versions_.Current();
  if (limit == 0) return results;

  // One batched filter probe per table for the whole batch; only the
  // ranges a table's filter cannot exclude open a cursor on its data
  // blocks (cache-served via GetBlock). Row t of may_match is the t-th
  // table of the full walk.
  auto may_match = std::make_unique<bool[]>(version->table_count() * n);
  size_t t = 0;
  version->ForEachTable(0, UINT64_MAX, [&](size_t, const auto& table) {
    table->RangeMultiProbe(los, his, &may_match[t++ * n], &stats_);
    return true;
  });
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lo = los[i];
    const uint64_t hi = his[i];
    MergingIterator merge;
    version->ForEachMemTable([&](const MemTable& mem) {
      merge.Add(MemTable::Iterator(mem, lo));
      return true;
    });
    t = 0;
    version->ForEachTable(0, UINT64_MAX, [&](size_t, const auto& table) {
      if (may_match[t++ * n + i]) {
        merge.Add(table->RangeCursor(lo, hi, &stats_));
      }
      return true;
    });
    auto& out = results[i];
    for (; merge.Valid() && merge.key() <= hi && out.size() < limit;
         merge.Next()) {
      // A winning tombstone means the key is deleted.
      if (!merge.tombstone()) {
        out.emplace_back(merge.key(), std::string(merge.value()));
      }
    }
  }
  return results;
}

bool Db::RangeMayMatch(uint64_t lo, uint64_t hi) {
  if (sampler_ != nullptr) sampler_->RecordRange(lo, hi);
  auto version = versions_.Current();
  // Memtables answer exactly: a live row in [lo, hi] (a tombstone is
  // no row).
  bool any = false;
  version->ForEachMemTable([&](const MemTable& mem) {
    for (MemTable::Iterator it(mem, lo); !any && it.Valid() && it.key() <= hi;
         it.Next()) {
      any = !it.tombstone();
    }
    return !any;
  });
  if (any) return true;
  version->ForEachTable(0, UINT64_MAX, [&](size_t, const auto& table) {
    if (table->filter() != nullptr) {
      bool may_match = false;
      table->RangeMultiProbe({&lo, 1}, {&hi, 1}, &may_match, &stats_);
      if (may_match) {
        // A positive pays the first block read of the scan it would
        // start: the I/O cost of a false positive (Fig. 12.G).
        TableReader::Iterator(*table, &stats_, lo, /*use_cache=*/true);
        any = true;
      }
    } else {
      if (lo <= table->max_key() && hi >= table->min_key()) any = true;
    }
    return true;
  });
  return any;
}

void Db::UpdateTombstonesLive() {
  uint64_t total = 0;
  versions_.Current()->ForEachTable(0, UINT64_MAX, [&](size_t,
                                                       const auto& table) {
    total += table->num_tombstones();
    return true;
  });
  stats_.tombstones_live.store(total, std::memory_order_relaxed);
}

DbFlushStats Db::flush_stats() const {
  std::lock_guard<std::mutex> lock(flush_stats_mu_);
  return flush_stats_;
}

std::vector<size_t> Db::level_table_counts() const {
  auto version = versions_.Current();
  std::vector<size_t> counts;
  counts.reserve(version->levels().size());
  for (const auto& level : version->levels()) counts.push_back(level.size());
  return counts;
}

uint64_t Db::filter_memory_bits() const {
  uint64_t total = 0;
  versions_.Current()->ForEachTable(0, UINT64_MAX, [&](size_t,
                                                       const auto& table) {
    total += table->filter_memory_bits();
    return true;
  });
  return total;
}

}  // namespace bloomrf
