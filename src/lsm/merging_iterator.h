// The one k-way merge of the mini-LSM store. Db::RangeScan/ScanRange
// and compaction (Db::MergeRange) all read through it.
//
// Sources are sorted cursors — a MemTable::Iterator per memtable, a
// TableReader::Iterator per SST — added newest first, so a source's
// rank (its position in add order) is its recency. A heap ordered by
// (key, rank) yields every key once, as its newest version: on a tie
// rank 0 wins, and stepping past a key advances every source holding
// it, which is what buries the shadowed older versions. Tombstones are
// surfaced like any entry; what a deletion means is the caller's
// decision (a scan hides the key, compaction keeps or drops it).
//
// Cursors are lazy: a table source reads a block only when the merge
// reaches it, so a scan that stops after `limit` rows reads no further
// and a source needs no per-call budget.
//
//   MergingIterator merge;
//   merge.Add(MemTable::Iterator(*active, lo));               // newest
//   merge.Add(TableReader::Iterator(*table, stats, lo, true));  // older
//   for (; merge.Valid() && merge.key() <= hi; merge.Next()) { ... }
//   if (!merge.ok()) { /* some source could not be read */ }

#ifndef BLOOMRF_LSM_MERGING_ITERATOR_H_
#define BLOOMRF_LSM_MERGING_ITERATOR_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "lsm/memtable.h"
#include "lsm/table_reader.h"

namespace bloomrf {

class MergingIterator {
 public:
  using Cursor = std::variant<MemTable::Iterator, TableReader::Iterator>;

  /// Adds the next-older source. Add every source before reading.
  void Add(Cursor cursor) {
    cursors_.push_back(std::move(cursor));
    Push(cursors_.size() - 1);
  }

  bool Valid() const { return !heap_.empty(); }
  uint64_t key() const { return heap_.front().key; }
  /// The newest version of key(): its value (empty for a tombstone)
  /// and whether it is a deletion.
  std::string_view value() const {
    return std::visit([](const auto& c) { return c.value(); }, Top());
  }
  bool tombstone() const {
    return std::visit([](const auto& c) { return c.tombstone(); }, Top());
  }

  /// Steps past key(): every source positioned on it advances. A
  /// no-op once the merge is exhausted.
  void Next() {
    if (!Valid()) return;
    const uint64_t current = key();
    do {
      const size_t rank = heap_.front().rank;
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
      std::visit([](auto& c) { c.Next(); }, cursors_[rank]);
      Push(rank);
    } while (!heap_.empty() && heap_.front().key == current);
  }

  /// False as soon as any source failed to read. The merge still runs
  /// on over the remaining sources; a caller that must not lose rows
  /// checks ok() before trusting each key.
  bool ok() const { return ok_; }

 private:
  struct Head {
    uint64_t key;
    size_t rank;
  };

  /// Heap order: the smallest key on top, then the newest source.
  static bool Later(const Head& a, const Head& b) {
    return a.key != b.key ? a.key > b.key : a.rank > b.rank;
  }

  /// Re-enters source `rank` into the heap at its current position, or
  /// retires it when exhausted (noting a read failure).
  void Push(size_t rank) {
    const bool valid = std::visit(
        [this](const auto& c) {
          if (!c.ok()) ok_ = false;
          return c.Valid();
        },
        cursors_[rank]);
    if (!valid) return;
    const uint64_t key =
        std::visit([](const auto& c) { return c.key(); }, cursors_[rank]);
    heap_.push_back({key, rank});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  const Cursor& Top() const { return cursors_[heap_.front().rank]; }

  std::vector<Cursor> cursors_;
  std::vector<Head> heap_;
  bool ok_ = true;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_MERGING_ITERATOR_H_
