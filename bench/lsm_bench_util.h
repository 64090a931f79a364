// Shared driver for the system-level (mini-LSM) benchmarks, mirroring
// the paper's RocksDB setup: uniformly distributed integer keys,
// fixed-size values, compaction disabled (L0-only SSTs), one filter
// block per SST, and 1e5 empty point-/range-queries drawn from a
// workload distribution.

#ifndef BLOOMRF_BENCH_LSM_BENCH_UTIL_H_
#define BLOOMRF_BENCH_LSM_BENCH_UTIL_H_

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "lsm/db.h"
#include "util/timer.h"
#include "workload/key_generator.h"
#include "workload/query_generator.h"

namespace bloomrf::bench {

struct LsmRunResult {
  double range_fpr = 0;
  double point_fpr = 0;
  double range_seconds = 0;
  double point_seconds = 0;
  double create_seconds = 0;
  uint64_t filter_bits = 0;
  uint64_t sst_files = 0;
  LsmStats stats;
};

inline LsmRunResult RunLsmWorkload(const Dataset& data,
                                   std::shared_ptr<FilterPolicy> policy,
                                   const QueryWorkload& workload,
                                   const std::string& dir,
                                   size_t value_size = 64,
                                   uint64_t memtable_bytes = 4u << 20) {
  std::filesystem::remove_all(dir);
  DbOptions options;
  options.dir = dir;
  options.filter_policy = std::move(policy);
  options.memtable_bytes = memtable_bytes;
  Db db(options);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, value_size));
  db.Flush();

  LsmRunResult result;
  result.create_seconds = db.flush_stats().filter_create_seconds;
  result.filter_bits = db.filter_memory_bits();
  result.sst_files = db.num_tables();

  db.ResetStats();
  uint64_t fp = 0, empties = 0;
  Timer timer;
  for (const RangeQuery& q : workload.range_queries) {
    bool answer = db.RangeMayMatch(q.lo, q.hi);
    if (q.empty) {
      ++empties;
      if (answer) ++fp;
    }
  }
  result.range_seconds = timer.ElapsedSeconds();
  result.range_fpr =
      empties ? static_cast<double>(fp) / static_cast<double>(empties) : 0.0;
  result.stats = db.stats();

  // Point phase: every query is a miss, so any filter probe that
  // passes is a false positive (per-SST accounting, as in the paper).
  db.ResetStats();
  timer.Restart();
  std::string value;
  for (uint64_t y : workload.point_queries) {
    db.Get(y, &value);
  }
  result.point_seconds = timer.ElapsedSeconds();
  const LsmStats& point_stats = db.stats();
  uint64_t positives =
      point_stats.filter_probes - point_stats.total_filter_true_negatives();
  result.point_fpr =
      point_stats.filter_probes
          ? static_cast<double>(positives) /
                static_cast<double>(point_stats.filter_probes)
          : 0.0;
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace bloomrf::bench

#endif  // BLOOMRF_BENCH_LSM_BENCH_UTIL_H_
