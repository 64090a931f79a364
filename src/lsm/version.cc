#include "lsm/version.h"

#include <algorithm>

namespace bloomrf {

namespace {

bool ByMinKey(const std::shared_ptr<const TableReader>& a,
              const std::shared_ptr<const TableReader>& b) {
  return a->min_key() < b->min_key();
}

}  // namespace

std::shared_ptr<const Version> Version::WithSealedActive(
    std::shared_ptr<MemTable> fresh) const {
  std::shared_ptr<Version> next(new Version(Raw{}));
  next->active_ = std::move(fresh);
  next->sealed_ = sealed_;
  next->sealed_.push_back(active_);
  next->levels_ = levels_;
  return next;
}

std::shared_ptr<const Version> Version::WithFlushed(
    const MemTable* flushed, std::shared_ptr<const TableReader> table) const {
  std::shared_ptr<Version> next(new Version(Raw{}));
  next->active_ = active_;
  next->sealed_.reserve(sealed_.size());
  for (const auto& mem : sealed_) {
    if (mem.get() != flushed) next->sealed_.push_back(mem);
  }
  next->levels_ = levels_;
  next->levels_[0].push_back(std::move(table));
  return next;
}

std::shared_ptr<const Version> Version::WithCompaction(
    const std::vector<std::pair<uint32_t, uint64_t>>& input_files,
    size_t output_level, TableList outputs) const {
  std::shared_ptr<Version> next(new Version(Raw{}));
  next->active_ = active_;
  next->sealed_ = sealed_;
  next->levels_.resize(std::max(levels_.size(), output_level + 1));
  auto is_input = [&input_files](const std::shared_ptr<const TableReader>& t) {
    return std::any_of(
        input_files.begin(), input_files.end(),
        [&t](const auto& file) { return file.second == t->file_number(); });
  };
  for (size_t level = 0; level < levels_.size(); ++level) {
    for (const auto& table : levels_[level]) {
      if (!is_input(table)) next->levels_[level].push_back(table);
    }
  }
  auto& target = next->levels_[output_level];
  target.insert(target.end(), std::make_move_iterator(outputs.begin()),
                std::make_move_iterator(outputs.end()));
  if (output_level > 0) {
    // Deeper levels are sorted disjoint runs; the outputs cover a key
    // range no surviving file of the level overlaps, so sorting by
    // min_key restores the run invariant.
    std::sort(target.begin(), target.end(), ByMinKey);
  }
  return next;
}

std::shared_ptr<const Version> Version::FromLevels(
    std::vector<TableList> levels) {
  std::shared_ptr<Version> v(new Version(Raw{}));
  v->active_ = std::make_shared<MemTable>();
  if (levels.empty()) levels.resize(1);
  for (size_t level = 1; level < levels.size(); ++level) {
    std::sort(levels[level].begin(), levels[level].end(), ByMinKey);
  }
  v->levels_ = std::move(levels);
  return v;
}

}  // namespace bloomrf
