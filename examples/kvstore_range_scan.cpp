// KV-store scenario (the paper's RocksDB integration): a mini-LSM
// store with one filter block per SST answers range scans while
// skipping irrelevant files, with a live probe-cost readout.
//
// The filter backend is selected by FilterRegistry name:
//   $ ./examples/kvstore_range_scan                      # bloomRF
//   $ ./examples/kvstore_range_scan --filter=rosetta
//   $ ./examples/kvstore_range_scan list-filters

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "filters/registry.h"
#include "lsm/db.h"
#include "workload/key_generator.h"

using namespace bloomrf;

int main(int argc, char** argv) {
  std::string filter_name = "bloomrf";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--filter=", 9) == 0) {
      filter_name = argv[i] + 9;
    } else if (std::strcmp(argv[i], "list-filters") == 0) {
      for (const std::string& name : FilterRegistry::Instance().Names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
  }
  if (FilterRegistry::Instance().Find(filter_name) == nullptr) {
    std::fprintf(stderr, "unknown filter '%s' (try list-filters)\n",
                 filter_name.c_str());
    return 1;
  }
  std::printf("filter backend: %s\n", filter_name.c_str());

  std::string dir = "/tmp/bloomrf_example_kv";
  std::filesystem::remove_all(dir);

  FilterBuildParams params;
  params.bits_per_key = 20.0;
  params.max_range = 1e6;
  DbOptions options;
  options.dir = dir;
  options.filter_policy = NewRegistryPolicy(filter_name, params);
  options.memtable_bytes = 1 << 20;
  Db db(options);

  // Ingest orders keyed by timestamp-ish ids; several memtable flushes
  // produce multiple L0 SSTs (compaction disabled, as in the paper).
  std::printf("ingesting 100k entries...\n");
  Dataset data = MakeDataset(100'000, Distribution::kUniform, 7);
  for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 128));
  db.Flush();
  std::printf("L0 SST files: %zu, filter memory: %.1f bits/key\n",
              db.num_tables(),
              static_cast<double>(db.filter_memory_bits()) /
                  static_cast<double>(data.keys.size()));

  // A batched scan: populated regions, a hot region scanned twice (the
  // repeat is served by the block cache), and a sweep of empty ranges
  // the filters exclude without touching disk — all through ONE
  // Db::ScanRange call, so each SST's filter answers the whole batch
  // via its planned MayContainRangeBatch.
  db.ResetStats();
  std::vector<uint64_t> los, his;
  for (size_t q = 0; q < 64; ++q) {
    size_t at = 20'000 + q * 900;
    los.push_back(data.sorted_keys[at]);
    his.push_back(data.sorted_keys[at + 20]);
  }
  los.push_back(los[0]);  // repeat of the first range: cache-served
  his.push_back(his[0]);
  for (int i = 0; i < 10'000; ++i) {
    uint64_t anchor = 0x8000000000000000ULL + static_cast<uint64_t>(i) * 131;
    los.push_back(anchor);
    his.push_back(anchor + 1000);
  }
  auto batches = db.ScanRange(los, his);
  size_t total_rows = 0, empty_ranges = 0;
  for (const auto& rows : batches) {
    total_rows += rows.size();
    empty_ranges += rows.empty();
  }
  const LsmStats& stats = db.stats();
  double hit_rate = stats.block_cache_hits + stats.block_cache_misses > 0
                        ? static_cast<double>(stats.block_cache_hits) /
                              static_cast<double>(stats.block_cache_hits +
                                                  stats.block_cache_misses)
                        : 0.0;
  std::printf("ScanRange batch of %zu ranges: %zu rows, %zu empty\n",
              los.size(), total_rows, empty_ranges);
  std::printf("  filter probes=%llu (negatives=%llu), blocks read=%llu, "
              "cache hits=%llu misses=%llu (hit rate %.2f)\n",
              static_cast<unsigned long long>(stats.filter_probes),
              static_cast<unsigned long long>(
                  stats.total_filter_true_negatives()),
              static_cast<unsigned long long>(stats.blocks_read),
              static_cast<unsigned long long>(stats.block_cache_hits),
              static_cast<unsigned long long>(stats.block_cache_misses),
              hit_rate);

  std::filesystem::remove_all(dir);
  return 0;
}
