#include "lsm/block.h"

#include "util/coding.h"

namespace bloomrf {

void BlockBuilder::Add(uint64_t key, std::string_view value, bool tombstone) {
  PutFixed64(&buffer_, key);
  uint32_t meta = static_cast<uint32_t>(value.size());
  if (tombstone) meta |= kTombstoneBit;
  PutFixed32(&buffer_, meta);
  buffer_.append(value.data(), value.size());
  last_key_ = key;
  ++num_entries_;
}

std::string BlockBuilder::Finish() {
  std::string out = std::move(buffer_);
  buffer_.clear();
  num_entries_ = 0;
  last_key_ = 0;
  return out;
}

bool ParseBlock(std::string_view data, std::vector<BlockEntry>* entries,
                bool tombstone_flags) {
  const uint32_t len_mask =
      tombstone_flags ? ~BlockBuilder::kTombstoneBit : ~uint32_t{0};
  // Count the entries over their fixed 12-byte headers first, so the
  // vector is allocated once at its exact size.
  size_t count = 0;
  for (size_t pos = 0; pos + 12 <= data.size(); ++count) {
    pos += 12 + (DecodeFixed32(data.data() + pos + 8) & len_mask);
  }
  entries->clear();
  entries->reserve(count);
  size_t pos = 0;
  while (pos < data.size()) {
    if (pos + 12 > data.size()) return false;
    uint64_t key = DecodeFixed64(data.data() + pos);
    uint32_t meta = DecodeFixed32(data.data() + pos + 8);
    const uint32_t len = meta & len_mask;
    const bool tombstone = len != meta;
    pos += 12;
    if (pos + len > data.size()) return false;
    if (tombstone && len != 0) return false;  // tombstones carry no value
    entries->push_back({key, data.substr(pos, len), tombstone});
    pos += len;
  }
  return true;
}

}  // namespace bloomrf
