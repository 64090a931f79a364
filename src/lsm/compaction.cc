#include "lsm/compaction.h"

#include <algorithm>

namespace bloomrf {

void AddOverlapping(const Version& v, size_t first_level, size_t last_level,
                    uint64_t lo, uint64_t hi, CompactionJob* job) {
  v.ForEachTable(lo, hi, [&](size_t level,
                             const std::shared_ptr<const TableReader>& table) {
    if (level > last_level) return false;
    if (level >= first_level) {
      job->inputs.push_back(table);
      job->input_files.emplace_back(static_cast<uint32_t>(level),
                                    table->file_number());
    }
    return true;
  });
}

uint64_t LevelTargetBytes(const CompactionConfig& cfg, size_t level) {
  uint64_t target = cfg.level_base_bytes;
  for (size_t i = 1; i < level; ++i) target *= cfg.level_multiplier;
  return target;
}

std::optional<CompactionJob> PickCompaction(const Version& v,
                                            const CompactionConfig& cfg,
                                            std::vector<uint64_t>* cursors,
                                            uint64_t busy_levels) {
  const auto& levels = v.levels();
  if (cfg.max_levels < 2) return std::nullopt;  // nowhere to compact to
  const auto pair_free = [busy_levels](size_t level) {
    const uint64_t claim = (1ull << level) | (1ull << (level + 1));
    return (busy_levels & claim) == 0;
  };

  // L0 pressure: file count, since L0 files span the whole key range.
  // All of L0 goes at once (any subset could strand older values above
  // newer ones), newest first so the merge's precedence order matches
  // flush order, plus the slice of L1 the combined range overlaps.
  // When L0/L1 are claimed by a running job, pressure further down can
  // still be picked — that is the whole point of the multi-job
  // scheduler.
  if (levels[0].size() >= cfg.l0_trigger && pair_free(0)) {
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& table : levels[0]) {
      lo = std::min(lo, table->min_key());
      hi = std::max(hi, table->max_key());
    }
    // [lo, hi] spans every L0 file, so the walk takes all of L0.
    CompactionJob job;
    job.output_level = 1;
    AddOverlapping(v, 0, 1, lo, hi, &job);
    return job;
  }

  // Deeper levels: byte budget. One file per job — the one after the
  // level's cursor, wrapping, so successive jobs sweep the key space
  // instead of re-compacting one hot range.
  for (size_t level = 1; level < levels.size() && level + 1 < cfg.max_levels;
       ++level) {
    if (levels[level].empty()) continue;
    if (!pair_free(level)) continue;
    if (v.level_bytes(level) <= LevelTargetBytes(cfg, level)) continue;

    const uint64_t cursor =
        level < cursors->size() ? (*cursors)[level] : 0;
    const std::shared_ptr<const TableReader>* pick = nullptr;
    for (const auto& table : levels[level]) {  // sorted by min_key
      if (table->min_key() > cursor) {
        pick = &table;
        break;
      }
    }
    if (pick == nullptr) pick = &levels[level].front();  // wrap around
    if (level < cursors->size()) (*cursors)[level] = (*pick)->max_key();

    // The pick is the only file of its (disjoint) level overlapping
    // its own bounds, so the walk takes it plus the slice below.
    CompactionJob job;
    job.output_level = level + 1;
    AddOverlapping(v, level, level + 1, (*pick)->min_key(), (*pick)->max_key(),
                   &job);
    return job;
  }
  return std::nullopt;
}

uint64_t CompactionClaimBits(const CompactionJob& job) {
  uint64_t claim = 1ull << (job.output_level & 63);
  for (const auto& [level, number] : job.input_files) {
    claim |= 1ull << (level & 63);
  }
  return claim;
}

std::vector<std::pair<uint64_t, uint64_t>> PickSubcompactionRanges(
    const CompactionJob& job, size_t max_subcompactions) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  if (max_subcompactions <= 1 || job.inputs.size() < 2) {
    ranges.emplace_back(0, UINT64_MAX);
    return ranges;
  }

  // Candidate cut points: every input table's smallest and largest
  // key, each carrying half the table's bytes — the cheap stand-in for
  // a real key-density histogram. Sweeping them in key order and
  // cutting at equal weight fractions lands each range on a file
  // boundary of SOME input, which is where the merge work actually
  // divides.
  std::vector<std::pair<uint64_t, uint64_t>> points;  // (key, weight)
  points.reserve(job.inputs.size() * 2);
  uint64_t total_weight = 0;
  for (const auto& table : job.inputs) {
    const uint64_t weight = std::max<uint64_t>(1, table->file_size() / 2);
    points.emplace_back(table->min_key(), weight);
    points.emplace_back(table->max_key(), weight);
    total_weight += 2 * weight;
  }
  std::sort(points.begin(), points.end());

  std::vector<uint64_t> cuts;
  uint64_t accumulated = 0;
  size_t next_cut = 1;
  for (const auto& [key, weight] : points) {
    accumulated += weight;
    if (next_cut >= max_subcompactions) break;
    if (accumulated * max_subcompactions < next_cut * total_weight) continue;
    // A cut at `key` starts the next range there; key 0 or a repeat
    // would make an empty range.
    if (key != 0 && (cuts.empty() || key > cuts.back())) {
      cuts.push_back(key);
      ++next_cut;
    }
  }

  uint64_t lo = 0;
  for (uint64_t cut : cuts) {
    ranges.emplace_back(lo, cut - 1);
    lo = cut;
  }
  ranges.emplace_back(lo, UINT64_MAX);
  return ranges;
}

TombstoneShadow TombstoneShadow::FromVersion(const Version& v,
                                             const CompactionJob& job) {
  std::vector<std::pair<uint64_t, uint64_t>> bounds;
  const auto& levels = v.levels();
  for (size_t level = job.output_level + 1; level < levels.size(); ++level) {
    for (const auto& table : levels[level]) {
      bool is_input = false;
      for (const auto& [in_level, in_number] : job.input_files) {
        if (in_level == level && in_number == table->file_number()) {
          is_input = true;
          break;
        }
      }
      if (!is_input) bounds.emplace_back(table->min_key(), table->max_key());
    }
  }
  return FromBounds(std::move(bounds));
}

TombstoneShadow TombstoneShadow::FromBounds(
    std::vector<std::pair<uint64_t, uint64_t>> bounds) {
  TombstoneShadow shadow;
  std::sort(bounds.begin(), bounds.end());
  // Coalesce overlapping/adjacent ranges so Covers is one binary search
  // over disjoint intervals.
  for (const auto& [lo, hi] : bounds) {
    if (!shadow.bounds_.empty() && lo <= shadow.bounds_.back().second) {
      shadow.bounds_.back().second = std::max(shadow.bounds_.back().second, hi);
    } else {
      shadow.bounds_.emplace_back(lo, hi);
    }
  }
  return shadow;
}

bool TombstoneShadow::Covers(uint64_t key) const {
  // First interval with lo > key; the candidate is its predecessor.
  auto it = std::upper_bound(
      bounds_.begin(), bounds_.end(), key,
      [](uint64_t k, const std::pair<uint64_t, uint64_t>& b) {
        return k < b.first;
      });
  if (it == bounds_.begin()) return false;
  --it;
  return key <= it->second;
}

}  // namespace bloomrf
