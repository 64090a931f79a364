#include "lsm/table_reader.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include <unistd.h>

#include "lsm/block.h"
#include "lsm/table_builder.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/timer.h"

namespace bloomrf {

namespace {

// Process-unique table ids namespace the shared block cache's keys.
std::atomic<uint64_t> g_next_table_id{1};

// File size via the 64-bit tell; -1 on error. Only called from Open,
// before any concurrent reader exists.
int64_t FileSize(std::FILE* f) {
  if (fseeko(f, 0, SEEK_END) != 0) return -1;
  return static_cast<int64_t>(ftello(f));
}

}  // namespace

// Positioned read, safe for concurrent callers: pread carries its own
// offset and touches no shared cursor (and takes 64-bit offsets, so
// SSTs past 2 GiB read correctly).
bool TableReader::ReadFileAt(uint64_t offset, uint64_t size,
                             std::string* out) const {
  out->resize(size);
  int fd = fileno(file_);
  size_t done = 0;
  while (done < size) {
    ssize_t n = pread(fd, out->data() + done, size - done,
                      static_cast<off_t>(offset + done));
    if (n <= 0) return false;  // EOF or error; short SSTs are corrupt
    done += static_cast<size_t>(n);
  }
  return true;
}

TableReader::~TableReader() {
  if (file_ != nullptr) std::fclose(file_);
}

std::unique_ptr<TableReader> TableReader::Open(
    const std::string& path, const FilterPolicy* policy, LsmStats* stats,
    std::shared_ptr<BlockCache> cache, uint64_t file_number) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return nullptr;
  std::unique_ptr<TableReader> reader(new TableReader());
  reader->file_ = f;
  reader->cache_ = std::move(cache);
  reader->table_id_ = g_next_table_id.fetch_add(1, std::memory_order_relaxed);
  reader->path_ = path;
  reader->file_number_ = file_number;

  // The v3 footer: index_off index_size filter_off filter_size
  // num_tombstones (fixed64 each), index_crc filter_crc (fixed32),
  // magic. Any other trailing magic is rejected.
  int64_t file_size = FileSize(f);
  if (file_size < 56) return nullptr;
  reader->file_size_ = static_cast<uint64_t>(file_size);
  std::string footer;
  if (!reader->ReadFileAt(reader->file_size_ - 56, 56, &footer) ||
      DecodeFixed64(footer.data() + 48) != TableBuilder::kMagicV3) {
    return nullptr;
  }
  const uint64_t index_off = DecodeFixed64(footer.data());
  const uint64_t index_size = DecodeFixed64(footer.data() + 8);
  const uint64_t filter_off = DecodeFixed64(footer.data() + 16);
  const uint64_t filter_size = DecodeFixed64(footer.data() + 24);
  reader->num_tombstones_ = DecodeFixed64(footer.data() + 32);
  const uint32_t index_crc = DecodeFixed32(footer.data() + 40);
  const uint32_t filter_crc = DecodeFixed32(footer.data() + 44);

  // Metadata bounds before any dependent read: a corrupt footer must
  // not direct reads past the file or allocate absurd buffers.
  if (index_off > reader->file_size_ ||
      index_size > reader->file_size_ - index_off ||
      filter_off > reader->file_size_ ||
      filter_size > reader->file_size_ - filter_off ||
      index_size % 24 != 0) {
    return nullptr;
  }

  std::string index_data;
  if (!reader->ReadFileAt(index_off, index_size, &index_data)) return nullptr;
  if (Crc32c(index_data) != index_crc) return nullptr;
  uint64_t expected_offset = 0;
  for (size_t pos = 0; pos < index_data.size(); pos += 24) {
    IndexEntry entry{DecodeFixed64(index_data.data() + pos),
                     DecodeFixed64(index_data.data() + pos + 8),
                     DecodeFixed64(index_data.data() + pos + 16)};
    // Blocks are laid out contiguously with strictly increasing last
    // keys; anything else is corruption the read paths must never see.
    if (entry.offset != expected_offset || entry.size == 0 ||
        entry.size > index_off - entry.offset) {
      return nullptr;
    }
    if (!reader->index_.empty() &&
        entry.last_key <= reader->index_.back().last_key) {
      return nullptr;
    }
    expected_offset = entry.offset + entry.size + 4;  // + trailing CRC
    reader->index_.push_back(entry);
  }
  if (expected_offset != index_off) return nullptr;

  if (policy != nullptr && filter_size > 0) {
    std::string filter_data;
    if (!reader->ReadFileAt(filter_off, filter_size, &filter_data)) {
      return nullptr;
    }
    if (Crc32c(filter_data) != filter_crc) return nullptr;
    // The block is registry-framed; a corrupt or unknown block loads as
    // null and the table falls back to scanning.
    if (stats != nullptr) {
      Timer timer;
      reader->filter_ = policy->LoadFilter(filter_data);
      stats->deser_nanos += timer.ElapsedNanos();
    } else {
      reader->filter_ = policy->LoadFilter(filter_data);
    }
    if (reader->filter_ != nullptr) {
      // Remember which backend the block carries: measured FP/TN
      // outcomes are aggregated per backend for the filter planner.
      std::string_view backend, payload;
      if (FilterRegistry::ParseFrame(filter_data, &backend, &payload)) {
        reader->filter_backend_ = std::string(backend);
      }
    }
  }

  // Min/max keys: first key of first block, last key of last block.
  if (!reader->index_.empty()) {
    std::string block;
    if (!reader->ReadBlockAt(0, &block, nullptr)) return nullptr;
    if (block.size() >= 8) reader->min_key_ = DecodeFixed64(block.data());
    reader->max_key_ = reader->index_.back().last_key;
  }
  return reader;
}

bool TableReader::ReadBlockAt(size_t index_pos, std::string* buffer,
                              LsmStats* stats) const {
  const IndexEntry& entry = index_[index_pos];
  // Blocks carry a trailing CRC-32C: read payload+4, verify, trim.
  const uint64_t physical = entry.size + 4;
  bool ok;
  if (stats != nullptr) {
    Timer timer;
    ok = ReadFileAt(entry.offset, physical, buffer);
    stats->io_nanos += timer.ElapsedNanos();
    ++stats->blocks_read;
    stats->bytes_read += physical;
  } else {
    ok = ReadFileAt(entry.offset, physical, buffer);
  }
  if (!ok) {
    if (stats != nullptr) {
      stats->SetLastError("sst: block read failed in " + path_);
    }
    return false;
  }
  uint32_t expected = DecodeFixed32(buffer->data() + entry.size);
  buffer->resize(entry.size);
  if (Crc32c(*buffer) != expected) {
    // Served as "block unreadable" (callers skip or stop), never as
    // garbage entries.
    if (stats != nullptr) {
      ++stats->block_crc_errors;
      stats->SetLastError("sst: block crc mismatch in " + path_);
    }
    return false;
  }
  return true;
}

std::shared_ptr<const CachedBlock> TableReader::GetBlock(
    size_t index_pos, LsmStats* stats, bool use_cache) const {
  const bool cached = use_cache && cache_ != nullptr;
  if (cached) {
    auto cached = cache_->Lookup(table_id_, index_pos);
    if (cached != nullptr) {
      if (stats != nullptr) ++stats->block_cache_hits;
      return cached;
    }
    if (stats != nullptr) ++stats->block_cache_misses;
  }
  auto block = std::make_shared<CachedBlock>();
  if (!ReadBlockAt(index_pos, &block->raw, stats)) return nullptr;
  if (!ParseBlock(block->raw, &block->entries)) return nullptr;
  if (cached) cache_->Insert(table_id_, index_pos, block);
  return block;
}

int64_t TableReader::FindBlock(uint64_t key) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const IndexEntry& e, uint64_t k) { return e.last_key < k; });
  if (it == index_.end()) return -1;
  return static_cast<int64_t>(it - index_.begin());
}

void TableReader::RecordOutcome(Probe probe, uint64_t negatives,
                                uint64_t false_positives,
                                LsmStats* stats) const {
  if (filter_ == nullptr) return;
  auto add = [](std::atomic<uint64_t>& counter, uint64_t n) {
    if (n > 0) counter.fetch_add(n, std::memory_order_relaxed);
  };
  const auto p = static_cast<size_t>(probe);
  add(negatives_[p], negatives);
  add(false_positives_[p], false_positives);
  if (stats != nullptr) {
    const size_t level = LsmStats::StatsLevel(level_);
    add(stats->filter_true_negatives[level], negatives);
    add(stats->filter_false_positives[level], false_positives);
  }
}

Lookup TableReader::Find(uint64_t key, std::string* value,
                         LsmStats* stats) const {
  if (filter_ != nullptr) {
    bool may_match;
    if (stats != nullptr) {
      Timer timer;
      may_match = filter_->MayContain(key);
      stats->filter_probe_nanos += timer.ElapsedNanos();
      ++stats->filter_probes;
    } else {
      may_match = filter_->MayContain(key);
    }
    if (!may_match) {
      RecordOutcome(Probe::kPoint, 1, 0, stats);
      return Lookup::kMiss;
    }
  }
  // The filter said "maybe"; if the data blocks now say "no", that
  // probe was a false positive. An unreadable block (null) records no
  // outcome, and a tombstone hit confirms the filter's answer.
  int64_t block_idx = FindBlock(key);
  if (block_idx < 0) {
    RecordOutcome(Probe::kPoint, 0, 1, stats);
    return Lookup::kMiss;
  }
  auto block = GetBlock(static_cast<size_t>(block_idx), stats);
  if (block == nullptr) return Lookup::kMiss;
  auto it = std::lower_bound(
      block->entries.begin(), block->entries.end(), key,
      [](const BlockEntry& e, uint64_t k) { return e.key < k; });
  if (it == block->entries.end() || it->key != key) {
    RecordOutcome(Probe::kPoint, 0, 1, stats);
    return Lookup::kMiss;
  }
  if (it->tombstone) return Lookup::kTombstone;
  if (value != nullptr) value->assign(it->value);
  return Lookup::kHit;
}

size_t TableReader::MultiGet(std::span<const uint64_t> keys, Lookup* states,
                             std::string* values, LsmStats* stats) const {
  // Unresolved positions only: a DB chains the same arrays through its
  // tables newest-first, so keys resolved in a newer table (a hit OR a
  // tombstone — deletions shadow) are skipped.
  std::vector<uint32_t> pending;
  pending.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (states[i] == Lookup::kMiss) pending.push_back(static_cast<uint32_t>(i));
  }
  if (pending.empty()) return 0;

  // One batched (planned, prefetching) filter probe for the batch.
  std::vector<std::pair<int64_t, uint32_t>> by_block;
  by_block.reserve(pending.size());
  size_t allowed = 0;
  if (filter_ != nullptr) {
    std::vector<uint64_t> probe_keys;
    probe_keys.reserve(pending.size());
    for (uint32_t i : pending) probe_keys.push_back(keys[i]);
    auto may = std::make_unique<bool[]>(pending.size());
    bool* may_out = may.get();
    if (stats != nullptr) {
      Timer timer;
      filter_->MayContainBatch(probe_keys, may_out);
      stats->filter_probe_nanos += timer.ElapsedNanos();
      stats->filter_probes += pending.size();
    } else {
      filter_->MayContainBatch(probe_keys, may_out);
    }
    for (size_t j = 0; j < pending.size(); ++j) {
      if (!may_out[j]) continue;
      ++allowed;
      int64_t b = FindBlock(keys[pending[j]]);
      if (b >= 0) by_block.emplace_back(b, pending[j]);
    }
  } else {
    allowed = pending.size();
    for (uint32_t i : pending) {
      int64_t b = FindBlock(keys[i]);
      if (b >= 0) by_block.emplace_back(b, i);
    }
  }

  // Visit each surviving block once for all of its keys.
  std::stable_sort(by_block.begin(), by_block.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t resolved = 0;
  size_t unreadable = 0;
  std::shared_ptr<const CachedBlock> block;
  int64_t current = -1;
  for (const auto& [block_idx, i] : by_block) {
    if (block_idx != current) {
      block = GetBlock(static_cast<size_t>(block_idx), stats);
      current = block_idx;
    }
    if (block == nullptr) {
      ++unreadable;
      continue;
    }
    auto it = std::lower_bound(
        block->entries.begin(), block->entries.end(), keys[i],
        [](const BlockEntry& e, uint64_t k) { return e.key < k; });
    if (it == block->entries.end() || it->key != keys[i]) continue;
    if (it->tombstone) {
      states[i] = Lookup::kTombstone;
    } else {
      states[i] = Lookup::kHit;
      if (values != nullptr) values[i].assign(it->value);
    }
    ++resolved;
  }
  // Every allowed probe the data blocks neither confirmed (tombstone
  // hits included) nor failed to read was a false positive.
  RecordOutcome(Probe::kPoint, pending.size() - allowed,
                allowed - resolved - unreadable, stats);
  return resolved;
}

void TableReader::RangeMultiProbe(std::span<const uint64_t> los,
                                  std::span<const uint64_t> his,
                                  bool* may_match, LsmStats* stats) const {
  assert(los.size() == his.size());
  if (filter_ == nullptr) {
    std::fill(may_match, may_match + los.size(), true);
    return;
  }
  if (stats != nullptr) {
    Timer timer;
    filter_->MayContainRangeBatch(los, his, may_match);
    stats->filter_probe_nanos += timer.ElapsedNanos();
    stats->filter_probes += los.size();
  } else {
    filter_->MayContainRangeBatch(los, his, may_match);
  }
  RecordOutcome(Probe::kRange,
                static_cast<uint64_t>(
                    std::count(may_match, may_match + los.size(), false)),
                0, stats);
}

TableReader::Iterator TableReader::RangeCursor(uint64_t lo, uint64_t hi,
                                               LsmStats* stats) const {
  Iterator cursor(*this, stats, lo, /*use_cache=*/true);
  if (cursor.ok() && !(cursor.Valid() && cursor.key() <= hi)) {
    RecordOutcome(Probe::kRange, 0, 1, stats);
  }
  return cursor;
}

TableReader::Iterator::Iterator(const TableReader& table, LsmStats* stats,
                                uint64_t start_key, bool use_cache)
    : table_(table), stats_(stats), use_cache_(use_cache) {
  const int64_t block = table.FindBlock(start_key);
  LoadBlock(block < 0 ? table.index_.size()  // every key < start_key: end
                      : static_cast<size_t>(block));
  if (block_ == nullptr) return;
  // FindBlock guarantees this block's last key >= start_key, so the
  // target position is inside it.
  auto first = std::lower_bound(
      block_->entries.begin(), block_->entries.end(), start_key,
      [](const BlockEntry& e, uint64_t k) { return e.key < k; });
  pos_ = static_cast<size_t>(first - block_->entries.begin());
}

void TableReader::Iterator::LoadBlock(size_t block_idx) {
  block_.reset();
  block_idx_ = block_idx;
  pos_ = 0;
  if (block_idx >= table_.index_.size()) return;  // end of table
  block_ = table_.GetBlock(block_idx, stats_, use_cache_);
  if (block_ == nullptr) ok_ = false;
}

void TableReader::Iterator::Next() {
  if (!Valid()) return;
  if (++pos_ >= block_->entries.size()) LoadBlock(block_idx_ + 1);
}

void TableReader::ScanBlocks(uint64_t lo, uint64_t hi, size_t limit,
                             std::vector<ScanEntry>* out,
                             LsmStats* stats) const {
  for (Iterator it(*this, stats, lo, /*use_cache=*/true);
       it.Valid() && it.key() <= hi && out->size() < limit; it.Next()) {
    out->push_back({it.key(), std::string(it.value()), it.tombstone()});
  }
}

}  // namespace bloomrf
