// SST (sorted string table) writer of the mini-LSM store.
//
// File layout, format v3, the only one written and read (all offsets
// little-endian):
//   [data block  block_crc:fixed32]*  [index block]  [filter block]
//   [footer]
//   index entry  := last_key:fixed64 offset:fixed64 size:fixed64
//                   (size = block payload bytes, CRC excluded)
//   filter block := name:len-prefixed data:len-prefixed
//   footer       := index_off index_size filter_off filter_size
//                   num_tombstones:fixed64
//                   index_crc:fixed32 filter_crc:fixed32 magic_v3
// A data-block entry's meta word packs a tombstone flag in its top bit
// (see lsm/block.h) and the 56-byte footer counts the file's
// tombstones so the engine can report live tombstones without
// scanning. Every data block carries a trailing CRC-32C; the index and
// filter blocks are covered by footer CRCs, so TableReader::Open
// validates all metadata before serving a byte, and a flipped bit in a
// data block is detected at read time instead of returning garbage. A
// file with any other footer magic does not open.
//
// Durability: WriteTo stages the file as `path.tmp`, fsyncs it,
// renames it into place and fsyncs the parent directory — a crash at
// any point leaves either no SST or a complete one, never a torn file
// under the final name.
//
// Filters are built over the full key set of the file ("full filter"
// placement, as in the paper's RocksDB integration with
// compaction-disabled block-based tables).

#ifndef BLOOMRF_LSM_TABLE_BUILDER_H_
#define BLOOMRF_LSM_TABLE_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/block.h"
#include "lsm/env.h"
#include "lsm/filter_policy.h"

namespace bloomrf {

struct TableBuildStats {
  double filter_create_seconds = 0;
  uint64_t filter_block_bytes = 0;
  uint64_t data_bytes = 0;
  uint64_t num_entries = 0;
  uint64_t num_tombstones = 0;  // of num_entries, how many are deletes
  uint64_t file_bytes = 0;      // total bytes written
};

class TableBuilder {
 public:
  static constexpr uint64_t kMagicV3 = 0xb100f54b1e53ULL;

  /// `policy` may be null (no filter block). Does not take ownership.
  TableBuilder(const FilterPolicy* policy, size_t block_size)
      : policy_(policy), block_size_(block_size) {}

  /// Adds an entry; keys must arrive in strictly increasing order.
  /// A tombstone entry records a deletion (value ignored): it shadows
  /// the key in every older table and keeps the key in this table's
  /// filter — a reader must find the tombstone (and stop) rather than
  /// fall through to a stale value below.
  void Add(uint64_t key, std::string_view value, bool tombstone = false);

  /// Workload/feedback context handed to the policy at filter-build
  /// time. Optional; the default context makes context-aware policies
  /// fall back to their static behavior.
  void SetFilterContext(const FilterBuildContext& context) {
    context_ = context;
  }

  size_t num_entries() const { return keys_.size(); }
  /// Serialized bytes so far (data written + current block); the
  /// compaction uses it to split outputs near a target file size.
  size_t ApproximateBytes() const {
    return file_data_.size() + current_.SizeBytes();
  }

  /// Serializes the complete table and writes it durably through
  /// `env`: staged at `path.tmp`, fsynced, renamed to `path`, parent
  /// directory fsynced. False on any I/O failure (the tmp file is
  /// best-effort removed; `path` is never left torn).
  bool WriteTo(Env* env, const std::string& path, TableBuildStats* stats);
  /// Same through the default Env.
  bool WriteTo(const std::string& path, TableBuildStats* stats) {
    return WriteTo(Env::Default(), path, stats);
  }

 private:
  void FlushBlock();

  const FilterPolicy* policy_;
  FilterBuildContext context_;
  size_t block_size_;
  BlockBuilder current_;
  std::string file_data_;
  std::string index_;
  std::vector<uint64_t> keys_;
  uint64_t num_tombstones_ = 0;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_TABLE_BUILDER_H_
