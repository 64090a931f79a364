// Data-block format of the mini-LSM SST files.
//
// A block is a sorted run of (uint64 key, value) entries:
//   entry := key:fixed64  meta:fixed32  value_bytes
// The meta word packs the value length in its low 31 bits and a
// tombstone flag (deletion marker, empty value) in the top bit.
// Blocks target Options::block_size bytes (RocksDB-style 4 KiB
// default); the index block stores each data block's last key.

#ifndef BLOOMRF_LSM_BLOCK_H_
#define BLOOMRF_LSM_BLOCK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bloomrf {

/// Tri-state point-lookup outcome shared by every read source
/// (memtable, SST): a tombstone is a definite answer — the key was
/// deleted by a write newer than anything in older sources — so
/// lookups stop there instead of falling through and resurrecting an
/// older value.
enum class Lookup : uint8_t {
  kMiss = 0,       // not in this source; keep looking in older ones
  kHit = 1,        // live value found
  kTombstone = 2,  // deleted here; the key is definitively absent
};

/// One merged-scan row: tombstones travel through range merges so they
/// can shadow older live values, and are dropped only at the edge of
/// the public API (or at compaction's bottom level).
struct ScanEntry {
  uint64_t key = 0;
  std::string value;
  bool tombstone = false;
};

class BlockBuilder {
 public:
  static constexpr uint32_t kTombstoneBit = 1u << 31;

  void Add(uint64_t key, std::string_view value, bool tombstone = false);

  size_t SizeBytes() const { return buffer_.size(); }
  size_t NumEntries() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }
  uint64_t last_key() const { return last_key_; }

  /// Returns the serialized block and resets the builder.
  std::string Finish();

 private:
  std::string buffer_;
  size_t num_entries_ = 0;
  uint64_t last_key_ = 0;
};

struct BlockEntry {
  uint64_t key;
  std::string_view value;  // points into the block's backing buffer
  bool tombstone = false;
};

/// Parses a serialized block. Returns false on corruption.
/// `tombstone_flags` (the SST format) decodes the meta word's top bit
/// as the tombstone flag; false reads the whole word as the value
/// length, for blocks known to hold no tombstones.
bool ParseBlock(std::string_view data, std::vector<BlockEntry>* entries,
                bool tombstone_flags = true);

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_BLOCK_H_
