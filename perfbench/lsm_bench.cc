// End-to-end and per-layer benchmark of the bloomRF mini-LSM store.
//
//   lsm_bench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--trace-out FILE]
//
// Every workload drives the public Db API with closed-loop clients (a
// client sends its next call only after the previous one returned) and
// checks each answer against the generator's ground truth. The filter
// policy is bloomRF in every workload. Workloads (README.md says why
// each exists):
//  - point_leveled_hot: leveled tree, block cache holding all data and
//    warmed before timing; each cycle, 1 client runs Get, then MultiGet,
//    then short ScanRange batches.
//  - range_l0_cold: the paper's RocksDB setup — compaction off, ~35
//    overlapping L0 SSTs, cache ~1/20 of the data; each cycle, 1 client
//    runs ScanRange batches (half empty ranges), then Get and MultiGet.
//  - ingest_mixed: 2 writers (Put, ~10% Delete of written keys, WAL on,
//    small memtable, 2 compaction workers) beside 1 reader; each round
//    ends at quiescence, the run sweeps every written key, and 1 client
//    runs read cycles on the tree once fully compacted.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans (in
// this file, around the calls into each layer), replays the same
// streams through the layers' public functions and prints the
// per-layer metrics. The last stdout line is one JSON object.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "lsm/block.h"
#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "lsm/filter_policy.h"
#include "lsm/manifest.h"
#include "lsm/memtable.h"
#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "lsm/wal.h"
#include "perfbench/stats.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workload/key_generator.h"
#include "workload/query_generator.h"

namespace perfbench {
namespace {

using bloomrf::BlockCache;
using bloomrf::CachedBlock;
using bloomrf::Dataset;
using bloomrf::Db;
using bloomrf::DbFlushStats;
using bloomrf::DbOptions;
using bloomrf::Env;
using bloomrf::FileMeta;
using bloomrf::FilterBuildParams;
using bloomrf::FilterPolicy;
using bloomrf::Lookup;
using bloomrf::LsmStats;
using bloomrf::MakeValue;
using bloomrf::MemTable;
using bloomrf::Rng;
using bloomrf::ScanEntry;
using bloomrf::TableReader;
using bloomrf::WritableFile;

constexpr size_t kValueSize = 64;
constexpr size_t kMultiGetBatch = 64;
constexpr size_t kScanBatch = 16;
constexpr size_t kScanLimit = 32;
constexpr size_t kNonEmptyRows = 8;  // keys in each non-empty range
constexpr double kBitsPerKey = 16.0;
constexpr double kMaxRange = 65536;  // the policy's max_range
constexpr uint64_t kEmptyWidths[] = {16, 1024, 65536};
constexpr size_t kWriters = 2;
constexpr uint64_t kUpperHalf = uint64_t{1} << 63;
constexpr uint32_t kNever = UINT32_MAX;
constexpr size_t kReportedLevels = 6;  // DbOptions::max_levels default
constexpr size_t kPointPool = 120000;     // timed Get/MultiGet stream
constexpr size_t kRangePool = 30000;      // timed ScanRange stream
constexpr uint64_t kMaxFprProbes = 4000000;  // per-table probes per FPR

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------- spans

enum SpanName : uint32_t {
  kDbGet,
  kDbMultiGet,
  kDbScanRange,
  kDbPut,
  kDbDelete,
  kReplayGet,
  kReplayScan,
  kReplayPut,
  kReplayBlocks,
  kMemFind,
  kMemScan,
  kMemInsert,
  kWalAppend,
  kTableFind,
  kTableRangeProbe,
  kTableScanBlocks,
  kTableBuild,
  kFilterPoint,
  kFilterRange,
  kCacheLookup,
  kCacheInsert,
  kBlockRead,
  kBlockParse,
  kNumSpanNames
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "db.get",          "db.multiget",           "db.scan_range",
    "db.put",          "db.delete",             "replay.get",
    "replay.scan",     "replay.put",            "replay.blocks",
    "memtable.find",   "memtable.scan",         "memtable.insert",
    "wal.append",      "table_reader.find",     "table_reader.range_probe",
    "table_reader.scan_blocks", "table_builder.build", "bloomrf.point_probe",
    "bloomrf.range_probe", "block_cache.lookup", "block_cache.insert",
    "block.read",      "block.parse"};

/// One thread's span buffer. Kept in memory; written out at the end.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  void set_on(bool on) { on_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  void Root(uint32_t name, uint64_t rid, uint64_t start, uint64_t end) {
    if (on_) spans_.push_back({rid, name, -1, start, end});
  }
  int32_t Open(uint32_t name, uint64_t rid, int32_t parent) {
    if (!on_) return -1;
    spans_.push_back({rid, name, parent, 0, 0});
    spans_.back().start_ns = NowNs();  // after the push, which may grow
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span named `name`.
template <typename Fn>
auto Traced(Tracer& tracer, uint32_t name, uint64_t rid, int32_t parent,
            Fn&& fn) {
  const int32_t span = tracer.Open(name, rid, parent);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer.Close(span);
  } else {
    auto result = fn();
    tracer.Close(span);
    return result;
  }
}

// ---------------------------------------------------------- metrics

/// A metric's values: one per slice or round, or a single one.
struct Metric {
  std::vector<double> values;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // human-readable context lines
  std::vector<size_t> shape;       // files per level after setup
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = {{value}, unit};
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  void Fail(std::string why) {
    correct = false;
    Note("FAIL " + why);
  }
};

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Median and the percentile-rule tail of one latency sample, in us.
struct Latency {
  double p50_us = 0;
  double tail_us = 0;
  double tail_pct = 0;  // the percentile the tail really is
  size_t samples = 0;
};

Latency Summarize(std::vector<uint32_t> ns, double wanted_tail) {
  Latency out;
  out.samples = ns.size();
  out.tail_pct = SupportedPercentile(ns.size(), wanted_tail);
  if (out.tail_pct == 0) return out;
  out.p50_us = Percentile(ns, 50.0) / 1e3;
  out.tail_us = Percentile(ns, out.tail_pct) / 1e3;
  return out;
}

// ingest_mixed's writes, each round ending at quiescence, and the share
// of --seconds its read cycles take afterwards.
constexpr int kIngestRounds = 6;
constexpr double kIngestReadShare = 0.6;
// One cycle runs every read phase once. Short cycles give many slices,
// and their median ignores bursts of host noise that a few long rounds
// would average in.
constexpr double kCycleSeconds = 0.25;

/// Per-slice values of each metric (per round for the ingest writers),
/// reported and noted one by one; run.py reports the median over every
/// process of a run.
struct Slices {
  std::map<std::string, std::pair<std::vector<double>, const char*>> values;
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const char* unit) {
    auto& v = values[name];
    v.first.push_back(value);
    v.second = unit;
  }
  /// `<prefix>_p50_us` and `<prefix>_p99_us`, the tail by the
  /// percentile rule (the notes show the percentile each slice used).
  void AddLatency(const std::string& prefix, std::vector<uint32_t> ns) {
    const Latency lat = Summarize(std::move(ns), 99.0);
    if (lat.tail_pct == 0) {
      failures.push_back(Fmt("%s: %zu latency samples are too few",
                             prefix.c_str(), lat.samples));
      return;
    }
    Add(prefix + "_p50_us", lat.p50_us, "us");
    Add(prefix + "_p99_us", lat.tail_us, "us");
    Add(prefix + "_samples", static_cast<double>(lat.samples), "count");
    Add(prefix + "_tail_percentile", lat.tail_pct, "%");
  }
  void Report(perfbench::Report& report) const {
    for (const auto& why : failures) report.Fail(why);
    for (const auto& [name, v] : values) {
      std::string line = name + " by slice:";
      for (double x : v.first) line += Fmt(" %.6g", x);
      report.Note(line);
      if (name.ends_with("_samples") || name.ends_with("_percentile")) {
        continue;
      }
      report.metrics[name] = {v.first, v.second};
    }
  }
};

// --------------------------------------------------------- workloads

struct Config {
  uint64_t keys = 0;         // loaded before timing
  size_t chunk_keys = 0;     // keys per flushed memtable during the load
  bool compaction = false;
  size_t cache_bytes = 0;
  bool warm = false;         // read every block into the cache in setup
  size_t read_clients = 0;
  bool ingest = false;       // the mixed writers + reader phase
  uint64_t memtable_bytes = 64ull << 20;
  size_t compaction_threads = 1;
  uint64_t writer_ops_per_second = 0;  // ingest: ops per writer per --seconds
  // Phase order and shares of a read cycle.
  std::vector<std::pair<uint32_t, double>> phases;
};

std::optional<Config> MakeConfig(const std::string& name) {
  Config c;
  if (name == "point_leveled_hot") {
    c.keys = 600000;
    c.chunk_keys = 65536;
    c.compaction = true;
    c.cache_bytes = 512ull << 20;  // holds every block
    c.warm = true;
    c.read_clients = 1;
    c.phases = {{kDbGet, 0.4}, {kDbMultiGet, 0.3}, {kDbScanRange, 0.3}};
  } else if (name == "range_l0_cold") {
    c.keys = 1000000;
    c.chunk_keys = (c.keys + 34) / 35;  // 35 L0 SSTs
    c.compaction = false;
    c.cache_bytes = 4ull << 20;  // ~1/20 of the data
    c.read_clients = 1;
    c.phases = {{kDbScanRange, 0.5}, {kDbGet, 0.25}, {kDbMultiGet, 0.25}};
  } else if (name == "ingest_mixed") {
    c.keys = 200000;  // preloaded, in the upper half of the key space
    c.chunk_keys = 50000;
    c.compaction = true;
    c.compaction_threads = 2;
    c.cache_bytes = 8ull << 20;
    c.read_clients = 1;
    c.ingest = true;
    c.memtable_bytes = 2ull << 20;
    c.writer_ops_per_second = 100000;
    // Read cycles after the last round, on the fully compacted tree.
    c.phases = {{kDbGet, 0.4}, {kDbMultiGet, 0.3}, {kDbScanRange, 0.3}};
  } else {
    return std::nullopt;
  }
  return c;
}

/// The POSIX Env with every Sync and SyncDir a no-op. A device flush on
/// a shared virtual disk times the neighbours' I/O, not the store, so
/// every file the benchmark writes stays in the page cache. Durability
/// is not under test (the WAL's fsync is off as well).
class NoSyncEnv : public Env {
 public:
  std::unique_ptr<WritableFile> NewWritableFile(
      const std::string& path) override {
    auto file = base_->NewWritableFile(path);
    if (file == nullptr) return nullptr;
    return std::make_unique<File>(std::move(file));
  }
  bool RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool SyncDir(const std::string&) override { return true; }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  class File : public WritableFile {
   public:
    explicit File(std::unique_ptr<WritableFile> f) : f_(std::move(f)) {}
    bool Append(std::string_view data) override { return f_->Append(data); }
    bool Sync() override { return true; }
    bool Close() override { return f_->Close(); }

   private:
    std::unique_ptr<WritableFile> f_;
  };

  Env* base_ = Env::Default();
};

Env* BenchEnv() {
  static NoSyncEnv env;
  return &env;
}

std::shared_ptr<FilterPolicy> MakePolicy() {
  FilterBuildParams params;
  params.bits_per_key = kBitsPerKey;
  params.max_range = kMaxRange;
  return bloomrf::NewRegistryPolicy("bloomrf", params);
}

DbOptions MakeOptions(const Config& cfg, const std::string& dir,
                      std::shared_ptr<FilterPolicy> policy) {
  DbOptions o;
  o.dir = dir;
  o.filter_policy = std::move(policy);
  o.block_cache_bytes = cfg.cache_bytes;
  o.memtable_bytes = cfg.memtable_bytes;
  o.wal = true;
  o.wal_fsync = false;
  o.env = BenchEnv();
  o.compaction = cfg.compaction;
  // One compaction worker and a flush + drain after every chunk make the
  // read workloads' tree shape a function of the seed alone.
  o.compaction_threads = cfg.compaction_threads;
  o.max_subcompactions = cfg.compaction_threads;
  return o;
}

bool ValueIs(uint64_t key, std::string_view value) {
  return value == MakeValue(key, kValueSize);
}

// ------------------------------------------------------------ inputs

struct PointQuery {
  uint64_t key = 0;
  bool present = false;
};

/// A range with its ground truth: the expected rows are
/// sorted_keys[first, first + rows).
struct RangeQuery {
  uint64_t lo = 0;
  uint64_t hi = 0;
  size_t first = 0;
  uint32_t rows = 0;
};

struct Inputs {
  Dataset data;                     // loaded keys
  std::vector<PointQuery> points;   // 50% present, 50% absent
  std::vector<RangeQuery> ranges;   // alternating empty / non-empty
  std::vector<uint64_t> absent;     // FPR probes (ground truth: absent)
  std::vector<std::pair<uint64_t, uint64_t>> empty;  // FPR range probes
};

RangeQuery Truth(const Dataset& d, uint64_t lo, uint64_t hi) {
  const auto& s = d.sorted_keys;
  RangeQuery q{lo, hi, 0, 0};
  q.first = static_cast<size_t>(std::lower_bound(s.begin(), s.end(), lo) -
                                s.begin());
  size_t end = q.first;
  while (end < s.size() && s[end] <= hi && end - q.first < kScanLimit) ++end;
  q.rows = static_cast<uint32_t>(end - q.first);
  return q;
}

/// Builds the query streams from the workload generators:
/// `per_width` absent keys and empty ranges per range width (fewer
/// after filtering), and timed streams of up to kPointPool points and
/// kRangePool ranges. Keys and ranges below `domain_lo` are left out
/// (ingest_mixed keeps its writers' keys below 2^63 and everything the
/// reader checks above).
Inputs MakeInputs(Dataset data, uint64_t seed, uint64_t domain_lo,
                  size_t per_width) {
  Inputs in;
  in.data = std::move(data);
  const Dataset& d = in.data;
  std::vector<std::pair<uint64_t, uint64_t>> by_width[std::size(kEmptyWidths)];
  size_t kept = SIZE_MAX;  // empty ranges of the rarest width
  for (size_t w = 0; w < std::size(kEmptyWidths); ++w) {
    const auto q = bloomrf::MakeQueryWorkload(
        d, per_width, kEmptyWidths[w], bloomrf::Distribution::kUniform,
        seed * 31 + w + 1);
    for (uint64_t k : q.point_queries) {
      if (k >= domain_lo && !d.Contains(k)) in.absent.push_back(k);
    }
    for (const auto& r : q.range_queries) {
      if (r.empty && r.lo >= domain_lo) by_width[w].emplace_back(r.lo, r.hi);
    }
    kept = std::min(kept, by_width[w].size());
  }
  // Interleave widths so every slice of the stream mixes them.
  for (size_t i = 0; i < kept; ++i) {
    for (const auto& ranges : by_width) in.empty.push_back(ranges[i]);
  }

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto& s = d.sorted_keys;
  const size_t lo_idx = static_cast<size_t>(
      std::lower_bound(s.begin(), s.end(), domain_lo) - s.begin());
  const size_t n_present = std::min(kPointPool / 2, in.absent.size());
  for (size_t i = 0; i < n_present; ++i) {
    in.points.push_back({s[lo_idx + rng.Uniform(s.size() - lo_idx)], true});
    in.points.push_back({in.absent[i], false});
  }
  const size_t n_ranges = std::min(kRangePool / 2, in.empty.size());
  for (size_t i = 0; i < n_ranges; ++i) {
    in.ranges.push_back(Truth(d, in.empty[i].first, in.empty[i].second));
    const size_t at =
        lo_idx + rng.Uniform(s.size() - lo_idx - kNonEmptyRows);
    in.ranges.push_back(Truth(d, s[at], s[at + kNonEmptyRows - 1]));
  }
  return in;
}

bool RowsMatch(const Dataset& d, const RangeQuery& q,
               const std::vector<std::pair<uint64_t, std::string>>& rows) {
  if (rows.size() != q.rows) return false;
  for (size_t j = 0; j < rows.size(); ++j) {
    if (rows[j].first != d.sorted_keys[q.first + j] ||
        !ValueIs(rows[j].first, rows[j].second)) {
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------- clients

/// One closed-loop client's record of a phase. Aligned so clients
/// updating their counters never share a cache line.
struct alignas(128) Client {
  explicit Client(bool trace) : tracer(trace) {}

  std::vector<uint32_t> get_ns, multiget_ns, scan_ns, put_ns;
  uint64_t gets = 0, multiget_keys = 0, ranges = 0, scan_calls = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t next_rid = 0;
  Tracer tracer;

  void Time(uint32_t name, uint64_t t0, uint64_t t1,
            std::vector<uint32_t>* sink) {
    sink->push_back(static_cast<uint32_t>(std::min<uint64_t>(t1 - t0,
                                                             UINT32_MAX)));
    tracer.Root(name, next_rid++, t0, t1);
  }
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Starts `clients.size()` threads together, runs fn(index, client) on
/// each, joins them and returns the wall seconds. A single client runs
/// on the calling thread, so every phase keeps its CPU and malloc arena.
template <typename Fn>
double RunClients(std::vector<Client>& clients, Fn&& fn) {
  if (clients.size() == 1) {
    const uint64_t start = NowNs();
    fn(0, clients[0]);
    return static_cast<double>(NowNs() - start) / 1e9;
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(c, clients[c]);
    });
  }
  const uint64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

std::vector<Client> MakeClients(size_t n, bool trace) {
  std::vector<Client> clients;
  for (size_t i = 0; i < n; ++i) clients.emplace_back(trace);
  for (auto& c : clients) {
    c.get_ns.reserve(1 << 20);
    c.scan_ns.reserve(1 << 16);
    c.multiget_ns.reserve(1 << 17);
  }
  return clients;
}

void GetLoop(Db& db, const Inputs& in, size_t offset, uint64_t deadline,
             Client& c) {
  std::string value;
  const auto& pool = in.points;
  size_t i = offset % pool.size();
  for (;;) {
    const PointQuery& q = pool[i];
    if (++i == pool.size()) i = 0;
    const uint64_t t0 = NowNs();
    const bool found = db.Get(q.key, &value);
    const uint64_t t1 = NowNs();
    c.Time(kDbGet, t0, t1, &c.get_ns);
    ++c.gets;
    c.Check(found == q.present && (!found || ValueIs(q.key, value)));
    if (t1 >= deadline) return;
  }
}

void MultiGetLoop(Db& db, const Inputs& in, size_t offset, uint64_t deadline,
                  Client& c) {
  const auto& pool = in.points;
  std::vector<uint64_t> keys(kMultiGetBatch);
  std::vector<const PointQuery*> qs(kMultiGetBatch);
  size_t i = offset % pool.size();
  for (;;) {
    for (size_t k = 0; k < kMultiGetBatch; ++k) {
      qs[k] = &pool[i];
      keys[k] = pool[i].key;
      if (++i == pool.size()) i = 0;
    }
    const uint64_t t0 = NowNs();
    auto result = db.MultiGet(keys);
    const uint64_t t1 = NowNs();
    c.Time(kDbMultiGet, t0, t1, &c.multiget_ns);
    c.multiget_keys += kMultiGetBatch;
    for (size_t k = 0; k < kMultiGetBatch; ++k) {
      c.Check(result[k].has_value() == qs[k]->present &&
              (!result[k] || ValueIs(keys[k], *result[k])));
    }
    if (t1 >= deadline) return;
  }
}

/// One ScanRange call over ranges [i, i + kScanBatch) of the pool
/// (wrapping); returns the end time.
uint64_t ScanOnce(Db& db, const Inputs& in, size_t* i, Client& c) {
  const auto& pool = in.ranges;
  uint64_t los[kScanBatch], his[kScanBatch];
  const RangeQuery* qs[kScanBatch];
  for (size_t k = 0; k < kScanBatch; ++k) {
    qs[k] = &pool[*i];
    los[k] = pool[*i].lo;
    his[k] = pool[*i].hi;
    if (++*i == pool.size()) *i = 0;
  }
  const uint64_t t0 = NowNs();
  auto result = db.ScanRange(los, his, kScanLimit);
  const uint64_t t1 = NowNs();
  c.Time(kDbScanRange, t0, t1, &c.scan_ns);
  c.ranges += kScanBatch;
  ++c.scan_calls;
  for (size_t k = 0; k < kScanBatch; ++k) {
    c.Check(RowsMatch(in.data, *qs[k], result[k]));
  }
  return t1;
}

void ScanLoop(Db& db, const Inputs& in, size_t offset, uint64_t deadline,
              Client& c) {
  size_t i = offset % in.ranges.size();
  while (ScanOnce(db, in, &i, c) < deadline) {
  }
}

struct PhaseResult {
  double seconds = 0;
  std::vector<Client> clients;

  template <typename Field>
  uint64_t Sum(Field f) const {
    uint64_t s = 0;
    for (const auto& c : clients) s += c.*f;
    return s;
  }
  std::vector<uint32_t> Merge(std::vector<uint32_t> Client::*f) const {
    std::vector<uint32_t> out;
    for (const auto& c : clients) {
      out.insert(out.end(), (c.*f).begin(), (c.*f).end());
    }
    return out;
  }
};

/// One timed read phase: `clients` closed-loop clients issue `op` calls
/// for `seconds`, each starting at its own offset into the pools.
PhaseResult ReadPhase(Db& db, const Inputs& in, uint32_t op, size_t clients,
                      double seconds, bool trace) {
  PhaseResult r;
  r.clients = MakeClients(clients, trace);
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(seconds * 1e9);
  r.seconds = RunClients(r.clients, [&](size_t c, Client& client) {
    const size_t points = in.points.size() * c / clients;
    const size_t ranges = in.ranges.size() * c / clients;
    if (op == kDbGet) GetLoop(db, in, points, deadline, client);
    if (op == kDbMultiGet) MultiGetLoop(db, in, points, deadline, client);
    if (op == kDbScanRange) ScanLoop(db, in, ranges, deadline, client);
  });
  return r;
}

// ------------------------------------------------------------- setup

struct Setup {
  std::unique_ptr<Db> db;
  std::string dir;
  double total_s = 0;   // load + settle + warm
  double ingest_s = 0;  // load + settle: until the tree is quiescent
  std::vector<uint32_t> put_ns;
  std::vector<size_t> shape;
  uint64_t attempted = 0, failed = 0;
  Tracer tracer{false};
};

/// Loads `data` in chunks of cfg.chunk_keys, then warms the cache. Each
/// chunk is flushed, and with compaction the tree drained, before the
/// next, so neither flushes nor picks race the writer: the tree's shape
/// and the load's timing depend on the seed alone.
Setup RunSetup(const Config& cfg, const Dataset& data,
               std::shared_ptr<FilterPolicy> policy, const std::string& dir,
               bool trace) {
  std::filesystem::remove_all(dir);
  Setup s;
  s.dir = dir;
  s.tracer = Tracer(trace);
  s.put_ns.reserve(data.keys.size());
  const uint64_t start = NowNs();
  s.db = std::make_unique<Db>(MakeOptions(cfg, dir, std::move(policy)));
  Db& db = *s.db;
  uint64_t rid = 0;
  for (size_t at = 0; at < data.keys.size(); at += cfg.chunk_keys) {
    const size_t end = std::min(data.keys.size(), at + cfg.chunk_keys);
    for (size_t i = at; i < end; ++i) {
      const uint64_t key = data.keys[i];
      const std::string value = MakeValue(key, kValueSize);
      const uint64_t t0 = NowNs();
      const bool ok = db.Put(key, value);
      const uint64_t t1 = NowNs();
      s.put_ns.push_back(static_cast<uint32_t>(t1 - t0));
      s.tracer.Root(kDbPut, rid++, t0, t1);
      ++s.attempted;
      if (!ok) ++s.failed;
    }
    ++s.attempted;
    if (!db.Flush()) ++s.failed;
    if (cfg.compaction) {
      ++s.attempted;
      if (!db.WaitForCompaction()) ++s.failed;
    }
  }
  s.ingest_s = static_cast<double>(NowNs() - start) / 1e9;
  if (cfg.warm) {
    const auto& keys = data.sorted_keys;
    for (size_t at = 0; at < keys.size(); at += 1024) {
      const size_t n = std::min<size_t>(1024, keys.size() - at);
      db.MultiGet(std::span<const uint64_t>(keys.data() + at, n));
    }
  }
  s.total_s = static_cast<double>(NowNs() - start) / 1e9;
  s.shape = db.level_table_counts();
  return s;
}

std::string ShapeString(const std::vector<size_t>& shape) {
  std::string out;
  for (size_t i = 0; i < shape.size(); ++i) {
    out += (i ? "/" : "") + std::to_string(shape[i]);
  }
  return out;
}

// ------------------------------------------------------- live tables

/// The SSTs of the current MANIFEST, opened read-only in the order
/// Db::Get walks them (L0 newest first, then each deeper level).
struct LiveTables {
  std::vector<std::unique_ptr<TableReader>> tables;
  std::vector<FileMeta> metas;
};

bool OpenLiveTables(const std::string& dir, const FilterPolicy* policy,
                    std::shared_ptr<BlockCache> cache, LsmStats* stats,
                    LiveTables* out) {
  const uint64_t number = bloomrf::ReadCurrentManifestNumber(dir);
  if (number == 0) return false;
  bloomrf::ManifestState state;
  bloomrf::ManifestReplay(bloomrf::ManifestFileName(dir, number), &state);
  std::vector<FileMeta> order;
  for (size_t level = 0; level < state.levels.size(); ++level) {
    auto files = state.levels[level];
    if (level == 0) std::reverse(files.begin(), files.end());
    order.insert(order.end(), files.begin(), files.end());
  }
  for (const FileMeta& meta : order) {
    auto table = TableReader::Open(
        dir + "/" + std::to_string(meta.file_number) + ".sst", policy, stats,
        cache, meta.file_number);
    if (table == nullptr) return false;
    out->tables.push_back(std::move(table));
    out->metas.push_back(meta);
  }
  return true;
}

bool Covers(const TableReader& t, uint64_t lo, uint64_t hi) {
  return hi >= t.min_key() && lo <= t.max_key();
}

/// Store-level metrics of the final tree: per-table false-positive
/// rates on queries the ground truth says are empty, filter bits per
/// stored key, and SST bytes per live user byte.
void StoreMetrics(const std::string& dir, const FilterPolicy* policy,
                  const Inputs& in, uint64_t live_keys, Report& report) {
  const uint64_t start = NowNs();
  LiveTables live;
  if (!OpenLiveTables(dir, policy, nullptr, nullptr, &live)) {
    report.Fail("cannot open the live SSTs of " + dir);
    return;
  }
  uint64_t probes = 0, fp = 0;
  for (uint64_t key : in.absent) {
    if (probes >= kMaxFprProbes) break;
    for (const auto& t : live.tables) {
      if (!Covers(*t, key, key)) continue;
      ++probes;
      if (t->filter() == nullptr || t->filter()->MayContain(key)) ++fp;
    }
  }
  uint64_t rprobes = 0, rfp = 0;
  std::vector<uint64_t> los, his;
  const size_t per_table =
      kMaxFprProbes / std::max<size_t>(1, live.tables.size());
  for (const auto& t : live.tables) {
    los.clear();
    his.clear();
    for (const auto& [lo, hi] : in.empty) {
      if (los.size() >= per_table) break;
      if (!Covers(*t, lo, hi)) continue;
      los.push_back(lo);
      his.push_back(hi);
    }
    rprobes += los.size();
    if (t->filter() == nullptr) {
      rfp += los.size();
      continue;
    }
    auto out = std::make_unique<bool[]>(los.size());
    t->filter()->MayContainRangeBatch(los, his, out.get());
    for (size_t i = 0; i < los.size(); ++i) rfp += out[i];
  }
  uint64_t bits = 0, entries = 0, bytes = 0;
  for (size_t i = 0; i < live.tables.size(); ++i) {
    bits += live.tables[i]->filter_memory_bits();
    entries += live.metas[i].entries;
    bytes += live.tables[i]->file_size();
  }
  if (probes == 0 || rprobes == 0 || entries == 0 || live_keys == 0) {
    report.Fail("store metrics have no probes or no keys");
    return;
  }
  report.Set("point_fpr", static_cast<double>(fp) / probes, "ratio");
  report.Set("range_fpr", static_cast<double>(rfp) / rprobes, "ratio");
  report.Set("bits_per_key", static_cast<double>(bits) / entries, "bits");
  report.Set("space_amp",
             static_cast<double>(bytes) /
                 (static_cast<double>(live_keys) * (8 + kValueSize)),
             "ratio");
  report.Note(Fmt("store: %zu SSTs, %" PRIu64 " entries, point FP %" PRIu64
                  "/%" PRIu64 ", range FP %" PRIu64 "/%" PRIu64 ", %.3f s",
                  live.tables.size(), entries, fp, probes, rfp, rprobes,
                  static_cast<double>(NowNs() - start) / 1e9));
}

// ------------------------------------------------------ ingest_mixed

/// One writer's deterministic op stream: op i deletes the key put at
/// op i - 5 when i % 10 == 9 and puts a fresh key otherwise.
struct WriterStream {
  std::vector<uint64_t> key;
  std::vector<uint8_t> is_delete;
  std::vector<uint32_t> deleted_at;  // for a put: op index deleting it
  std::atomic<uint64_t> done{0};     // ops completed
};

/// A bijection on [0, 2^63): writer keys stay below the reader's half.
uint64_t Permute63(uint64_t x) {
  constexpr uint64_t kMask = kUpperHalf - 1;
  x &= kMask;
  x ^= x >> 31;
  x = (x * 0x9e3779b97f4a7c15ULL) & kMask;
  x ^= x >> 29;
  x = (x * 0xbf58476d1ce4e5b9ULL) & kMask;
  x ^= x >> 32;
  return x;
}

void MakeWriterStream(uint64_t seed, size_t writer, size_t ops,
                      WriterStream* s) {
  s->key.resize(ops);
  s->is_delete.assign(ops, 0);
  s->deleted_at.assign(ops, kNever);
  for (size_t i = 0; i < ops; ++i) {
    if (i % 10 == 9) {
      s->is_delete[i] = 1;
      s->key[i] = s->key[i - 5];
      s->deleted_at[i - 5] = static_cast<uint32_t>(i);
    } else {
      s->key[i] = Permute63((seed << 44) + (uint64_t{writer} << 40) + i);
    }
  }
}

enum class Expect { kPresent, kAbsent, kEither };

/// What a read of put-op `op` may return, given the writer's completed
/// op counts before and after the read.
Expect ExpectAt(const WriterStream& s, size_t op, uint64_t done_before,
                uint64_t done_after) {
  const uint32_t del = s.deleted_at[op];
  if (del < done_before) return Expect::kAbsent;
  if (del == kNever || del > done_after) return Expect::kPresent;
  return Expect::kEither;  // the delete ran concurrently with the read
}

bool Matches(Expect e, uint64_t key, const std::string* value) {
  if (e == Expect::kEither) return value == nullptr || ValueIs(key, *value);
  if (e == Expect::kAbsent) return value == nullptr;
  return value != nullptr && ValueIs(key, *value);
}

struct IngestResult {
  double write_s = 0;     // first op to quiescence
  uint64_t ops = 0;
  PhaseResult writers;
  PhaseResult reader;
};

std::vector<WriterStream> MakeWriterStreams(const Config& cfg, uint64_t seed,
                                            double seconds) {
  std::vector<WriterStream> streams(kWriters);
  const size_t ops = static_cast<size_t>(cfg.writer_ops_per_second * seconds);
  for (size_t w = 0; w < kWriters; ++w) {
    MakeWriterStream(seed, w, ops, &streams[w]);
  }
  return streams;
}

/// Writers run ops [begin, end) of their streams while the reader
/// reads beside them; ends at quiescence.
IngestResult RunIngest(Db& db, const Inputs& in, uint64_t seed, size_t begin,
                       size_t end, bool trace,
                       std::vector<WriterStream>& streams) {
  IngestResult r;
  r.writers.clients = MakeClients(kWriters, trace);
  r.reader.clients = MakeClients(1, trace);
  std::atomic<size_t> writers_left{kWriters};
  const uint64_t start = NowNs();
  std::thread reader([&] {
    Client& c = r.reader.clients[0];
    Rng rng(seed * 0x2545f4914f6cdd1dULL + begin);
    std::string value;
    size_t absent_i = begin % in.absent.size();
    size_t range_i = begin % in.ranges.size();
    auto recent = [&](size_t w, uint64_t done) {
      size_t op = done - 1 - rng.Uniform(std::min<uint64_t>(done, 50000));
      if (streams[w].is_delete[op]) --op;
      return op;
    };
    auto next_absent = [&] {
      const uint64_t k = in.absent[absent_i];
      if (++absent_i == in.absent.size()) absent_i = 0;
      return k;
    };
    for (uint64_t iter = 0; writers_left.load() > 0; ++iter) {
      for (size_t j = 0; j < 6; ++j) {
        const size_t w = j / 2 % kWriters;
        const uint64_t before = streams[w].done.load();
        const bool read_recent = j % 2 == 0 && before > 0;
        const size_t op = read_recent ? recent(w, before) : 0;
        const uint64_t key = read_recent ? streams[w].key[op] : next_absent();
        const uint64_t t0 = NowNs();
        const bool found = db.Get(key, &value);
        const uint64_t t1 = NowNs();
        c.Time(kDbGet, t0, t1, &c.get_ns);
        ++c.gets;
        const Expect e = read_recent
                             ? ExpectAt(streams[w], op, before,
                                        streams[w].done.load())
                             : Expect::kAbsent;
        c.Check(Matches(e, key, found ? &value : nullptr));
      }
      if (iter % 2 == 0) {
        uint64_t before[kWriters];
        for (size_t w = 0; w < kWriters; ++w) before[w] = streams[w].done;
        std::vector<uint64_t> keys;
        std::vector<std::pair<size_t, size_t>> src;  // (writer, op) or none
        for (size_t k = 0; k < 16; ++k) {
          const size_t w = k % kWriters;
          if (k % 4 < 2 && before[w] > 0) {
            const size_t op = recent(w, before[w]);
            keys.push_back(streams[w].key[op]);
            src.emplace_back(w, op);
          } else {
            keys.push_back(next_absent());
            src.emplace_back(kWriters, 0);
          }
        }
        const uint64_t t0 = NowNs();
        auto result = db.MultiGet(keys);
        const uint64_t t1 = NowNs();
        c.Time(kDbMultiGet, t0, t1, &c.multiget_ns);
        c.multiget_keys += keys.size();
        for (size_t k = 0; k < keys.size(); ++k) {
          const auto [w, op] = src[k];
          const Expect e = w < kWriters
                               ? ExpectAt(streams[w], op, before[w],
                                          streams[w].done.load())
                               : Expect::kAbsent;
          c.Check(Matches(e, keys[k], result[k] ? &*result[k] : nullptr));
        }
      }
      if (iter % 2 == 1) ScanOnce(db, in, &range_i, c);
    }
  });
  r.writers.seconds = RunClients(r.writers.clients, [&](size_t w,
                                                        Client& c) {
    WriterStream& s = streams[w];
    for (size_t i = begin; i < end; ++i) {
      bool ok;
      if (s.is_delete[i]) {
        const uint64_t t0 = NowNs();
        ok = db.Delete(s.key[i]);
        c.tracer.Root(kDbDelete, c.next_rid++, t0, NowNs());
      } else {
        const std::string value = MakeValue(s.key[i], kValueSize);
        const uint64_t t0 = NowNs();
        ok = db.Put(s.key[i], value);
        const uint64_t t1 = NowNs();
        c.Time(kDbPut, t0, t1, &c.put_ns);
      }
      s.done.store(i + 1);
      c.Check(ok);
    }
    writers_left.fetch_sub(1);
  });
  reader.join();
  r.reader.seconds = r.writers.seconds;
  Client& c = r.writers.clients[0];
  c.Check(db.Flush());
  c.Check(db.WaitForCompaction());
  r.write_s = static_cast<double>(NowNs() - start) / 1e9;
  r.ops = (end - begin) * kWriters;
  return r;
}

/// After quiescence: every written key must read back as its final
/// state (deleted keys absent), and every preloaded key as loaded. The
/// sweep runs in key order so each MultiGet batch reads few blocks.
void SweepIngest(Db& db, const Dataset& preload,
                 const std::vector<WriterStream>& streams, Report& report) {
  const uint64_t start = NowNs();
  std::vector<std::pair<uint64_t, bool>> expect;  // (key, live)
  for (const auto& s : streams) {
    for (size_t i = 0; i < s.key.size(); ++i) {
      if (!s.is_delete[i]) {
        expect.emplace_back(s.key[i], s.deleted_at[i] == kNever);
      }
    }
  }
  for (uint64_t k : preload.keys) expect.emplace_back(k, true);
  std::sort(expect.begin(), expect.end());
  uint64_t wrong = 0;
  std::vector<uint64_t> keys;
  for (size_t at = 0; at < expect.size(); at += 1024) {
    const size_t n = std::min<size_t>(1024, expect.size() - at);
    keys.clear();
    for (size_t k = 0; k < n; ++k) keys.push_back(expect[at + k].first);
    const auto result = db.MultiGet(keys);
    for (size_t k = 0; k < n; ++k) {
      const bool ok = expect[at + k].second
                          ? result[k] && ValueIs(keys[k], *result[k])
                          : !result[k].has_value();
      if (!ok) ++wrong;
    }
  }
  report.attempted += expect.size();
  report.failed += wrong;
  report.Note(Fmt("quiescent sweep: %zu keys, %" PRIu64 " wrong, %.3f s",
                  expect.size(), wrong,
                  static_cast<double>(NowNs() - start) / 1e9));
}

// ------------------------------------------------------ traced replay

/// The block index of one SST (format v3, see lsm/table_builder.h),
/// read so the replay can fetch and parse blocks itself.
struct BlockIndex {
  int fd = -1;
  std::vector<uint64_t> last_key, offset, size;

  BlockIndex() = default;
  BlockIndex(const BlockIndex&) = delete;
  BlockIndex& operator=(const BlockIndex&) = delete;
  ~BlockIndex() {
    if (fd >= 0) ::close(fd);
  }

  bool Load(const std::string& path) {
    fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return false;
    const off_t file_size = ::lseek(fd, 0, SEEK_END);
    char footer[56];
    if (file_size < 56 || ::pread(fd, footer, 56, file_size - 56) != 56 ||
        bloomrf::DecodeFixed64(footer + 48) !=
            bloomrf::TableBuilder::kMagicV3) {
      return false;
    }
    const uint64_t index_off = bloomrf::DecodeFixed64(footer);
    const uint64_t index_size = bloomrf::DecodeFixed64(footer + 8);
    if (index_size % 24 != 0 ||
        index_off + index_size > static_cast<uint64_t>(file_size)) {
      return false;
    }
    std::string index(index_size, '\0');
    if (::pread(fd, index.data(), index_size,
                static_cast<off_t>(index_off)) !=
        static_cast<ssize_t>(index_size)) {
      return false;
    }
    for (size_t at = 0; at < index_size; at += 24) {
      last_key.push_back(bloomrf::DecodeFixed64(index.data() + at));
      offset.push_back(bloomrf::DecodeFixed64(index.data() + at + 8));
      size.push_back(bloomrf::DecodeFixed64(index.data() + at + 16));
    }
    return true;
  }

  /// First block whose last key is >= key; size() when none.
  size_t Find(uint64_t key) const {
    return static_cast<size_t>(
        std::lower_bound(last_key.begin(), last_key.end(), key) -
        last_key.begin());
  }
};

/// The replay: the settled SSTs opened again with the workload's cache
/// capacity, a replay memtable and a separately owned block cache for
/// the block-level pass.
struct Replay {
  LiveTables live;
  std::vector<std::unique_ptr<BlockIndex>> index;
  std::shared_ptr<BlockCache> table_cache;
  BlockCache block_cache;
  LsmStats stats;
  MemTable mem;
  Tracer tracer{true};
  uint64_t failed = 0;

  explicit Replay(size_t cache_bytes)
      : table_cache(std::make_shared<BlockCache>(cache_bytes)),
        block_cache(cache_bytes) {}
};

/// Pass A of one Get: the memtable and each candidate table's
/// TableReader::Find, newest first, as Db::Get walks them. Returns the
/// tables checked.
size_t ReplayGet(Replay& rp, const PointQuery& q, uint64_t rid) {
  Tracer& tr = rp.tracer;
  const int32_t root = tr.Open(kReplayGet, rid, -1);
  std::string value;
  Lookup res = Traced(tr, kMemFind, rid, root,
                      [&] { return rp.mem.Find(q.key, &value); });
  size_t checked = 0;
  for (const auto& t : rp.live.tables) {
    if (res != Lookup::kMiss) break;
    if (!Covers(*t, q.key, q.key)) continue;
    ++checked;
    res = Traced(tr, kTableFind, rid, root,
                 [&] { return t->Find(q.key, &value, &rp.stats); });
  }
  tr.Close(root);
  if ((res == Lookup::kHit) != q.present) ++rp.failed;
  return checked;
}

/// Reads block `b` of table `ti` from the file, checks its CRC and
/// parses it, each step in its own span. Null on any failure.
std::shared_ptr<CachedBlock> ReadBlock(Replay& rp, size_t ti, size_t b,
                                       uint64_t rid, int32_t root) {
  Tracer& tr = rp.tracer;
  const BlockIndex& ix = *rp.index[ti];
  auto block = std::make_shared<CachedBlock>();
  const bool read_ok = Traced(tr, kBlockRead, rid, root, [&] {
    block->raw.resize(ix.size[b] + 4);
    if (::pread(ix.fd, block->raw.data(), block->raw.size(),
                static_cast<off_t>(ix.offset[b])) !=
        static_cast<ssize_t>(block->raw.size())) {
      return false;
    }
    const uint32_t crc = bloomrf::DecodeFixed32(block->raw.data() + ix.size[b]);
    block->raw.resize(ix.size[b]);
    return bloomrf::Crc32c(block->raw) == crc;
  });
  const bool ok = read_ok && Traced(tr, kBlockParse, rid, root, [&] {
    return bloomrf::ParseBlock(block->raw, &block->entries, true);
  });
  if (!ok) ++rp.failed;
  return ok ? block : nullptr;
}

/// Fetches block `b` of table `ti` the way TableReader does: cache
/// lookup, and on a miss read + CRC + parse and insert.
std::shared_ptr<const CachedBlock> ReplayBlock(Replay& rp, size_t ti,
                                               size_t b, uint64_t rid,
                                               int32_t root) {
  Tracer& tr = rp.tracer;
  auto cached = Traced(tr, kCacheLookup, rid, root,
                       [&] { return rp.block_cache.Lookup(ti, b); });
  if (cached != nullptr) return cached;
  auto block = ReadBlock(rp, ti, b, rid, root);
  if (block != nullptr) {
    Traced(tr, kCacheInsert, rid, root,
           [&] { rp.block_cache.Insert(ti, b, block); });
  }
  return block;
}

/// Pass C: read + CRC + parse of up to `per_table` evenly spaced blocks
/// of every table, so the per-call cost of the miss path is known even
/// where the cache never misses.
void ReplayBlockReads(Replay& rp, size_t per_table) {
  uint64_t rid = 0;
  for (size_t ti = 0; ti < rp.index.size(); ++ti) {
    const size_t n = rp.index[ti]->last_key.size();
    const size_t step = std::max<size_t>(1, n / per_table);
    for (size_t b = 0; b < n; b += step, ++rid) {
      const int32_t root = rp.tracer.Open(kReplayBlocks, rid, -1);
      ReadBlock(rp, ti, b, rid, root);
      rp.tracer.Close(root);
    }
  }
}

/// Pass B of one Get: the bloomRF point probe and the block path of
/// each candidate table.
void ReplayGetBlocks(Replay& rp, const PointQuery& q, uint64_t rid) {
  Tracer& tr = rp.tracer;
  const int32_t root = tr.Open(kReplayBlocks, rid, -1);
  for (size_t ti = 0; ti < rp.live.tables.size(); ++ti) {
    const TableReader& t = *rp.live.tables[ti];
    if (!Covers(t, q.key, q.key)) continue;
    const bool maybe = Traced(tr, kFilterPoint, rid, root,
                              [&] { return t.filter()->MayContain(q.key); });
    if (!maybe) continue;
    const size_t b = rp.index[ti]->Find(q.key);
    if (b == rp.index[ti]->last_key.size()) continue;
    auto block = ReplayBlock(rp, ti, b, rid, root);
    if (block == nullptr) break;
    const auto& e = block->entries;
    auto it = std::lower_bound(
        e.begin(), e.end(), q.key,
        [](const bloomrf::BlockEntry& x, uint64_t k) { return x.key < k; });
    if (it != e.end() && it->key == q.key) break;
  }
  tr.Close(root);
}

/// Pass A of one ScanRange batch: memtable scans, then per table one
/// RangeMultiProbe and a ScanBlocks per range it allows.
void ReplayScan(Replay& rp, std::span<const uint64_t> los,
                std::span<const uint64_t> his, uint64_t rid) {
  Tracer& tr = rp.tracer;
  const int32_t root = tr.Open(kReplayScan, rid, -1);
  std::vector<ScanEntry> chunk;
  Traced(tr, kMemScan, rid, root, [&] {
    for (size_t i = 0; i < los.size(); ++i) {
      chunk.clear();
      rp.mem.ScanEntries(los[i], his[i], kScanLimit + 1, &chunk);
    }
  });
  bool may[kScanBatch];
  for (const auto& t : rp.live.tables) {
    Traced(tr, kTableRangeProbe, rid, root,
           [&] { t->RangeMultiProbe(los, his, may, &rp.stats); });
    for (size_t i = 0; i < los.size(); ++i) {
      if (!may[i]) continue;
      chunk.clear();
      Traced(tr, kTableScanBlocks, rid, root, [&] {
        t->ScanBlocks(los[i], his[i], kScanLimit + 1, &chunk, &rp.stats);
      });
    }
  }
  tr.Close(root);
}

/// Pass B of one ScanRange batch: the batched bloomRF range probe and
/// the blocks each allowed range covers.
void ReplayScanBlocks(Replay& rp, std::span<const uint64_t> los,
                      std::span<const uint64_t> his, uint64_t rid) {
  Tracer& tr = rp.tracer;
  const int32_t root = tr.Open(kReplayBlocks, rid, -1);
  bool may[kScanBatch];
  for (size_t ti = 0; ti < rp.live.tables.size(); ++ti) {
    const TableReader& t = *rp.live.tables[ti];
    Traced(tr, kFilterRange, rid, root,
           [&] { t.filter()->MayContainRangeBatch(los, his, may); });
    const BlockIndex& ix = *rp.index[ti];
    for (size_t i = 0; i < los.size(); ++i) {
      if (!may[i] || !Covers(t, los[i], his[i])) continue;
      for (size_t b = ix.Find(los[i]); b < ix.last_key.size(); ++b) {
        if (ReplayBlock(rp, ti, b, rid, root) == nullptr) break;
        if (ix.last_key[b] >= his[i]) break;
      }
    }
  }
  tr.Close(root);
}

struct WriteReplay {
  double build_s = 0;
  uint64_t built_keys = 0;
  double filter_s = 0;
  size_t builds = 0;
};

/// The write path of one Put, replayed: WAL append of the encoded
/// record, then the memtable insert; a TableBuilder flush each time the
/// memtable reaches the workload's budget.
WriteReplay ReplayWrites(Replay& rp, const Config& cfg,
                         const FilterPolicy* policy,
                         std::span<const uint64_t> keys,
                         const std::string& dir) {
  WriteReplay out;
  Tracer& tr = rp.tracer;
  bloomrf::WalWriter wal(dir + "/replay.wal", false, &rp.stats);
  auto mem = std::make_unique<MemTable>();
  for (size_t p = 0; p < keys.size(); ++p) {
    const std::string value = MakeValue(keys[p], kValueSize);
    const int32_t root = tr.Open(kReplayPut, p, -1);
    const bloomrf::KV kv{keys[p], value};
    const std::string record = bloomrf::WalEncodeRecord({&kv, 1});
    if (!Traced(tr, kWalAppend, p, root, [&] { return wal.Append(record); })) {
      ++rp.failed;
    }
    Traced(tr, kMemInsert, p, root, [&] { mem->Put(keys[p], value); });
    tr.Close(root);
    // Flush where the Db did: after each load chunk (read workloads),
    // at the memtable budget (ingest_mixed).
    const bool full = cfg.ingest ? mem->ApproximateBytes() >= cfg.memtable_bytes
                                 : mem->size() >= cfg.chunk_keys;
    if (!full && p + 1 < keys.size()) continue;
    const std::string path = dir + "/replay.sst";
    bloomrf::TableBuildStats stats;
    const uint64_t t0 = NowNs();
    const bool ok = Traced(tr, kTableBuild, p, -1, [&] {
      bloomrf::TableBuilder builder(policy, 4096);
      for (const ScanEntry& e : mem->Snapshot()) {
        builder.Add(e.key, e.value, e.tombstone);
      }
      return builder.WriteTo(BenchEnv(), path, &stats);
    });
    out.build_s += static_cast<double>(NowNs() - t0) / 1e9;
    if (!ok) ++rp.failed;
    out.filter_s += stats.filter_create_seconds;
    out.built_keys += stats.num_entries;
    ++out.builds;
    std::filesystem::remove(path);
    // The last, partly filled memtable stays for the Get replay of
    // the write workload, whose Db also serves reads from one.
    if (p + 1 < keys.size()) mem = std::make_unique<MemTable>();
  }
  if (cfg.ingest) std::swap(rp.mem, *mem);
  std::filesystem::remove(dir + "/replay.wal");
  return out;
}

/// Counter snapshot bracketing a phase.
struct Counters {
  LsmStats lsm;
  uint64_t hits = 0, misses = 0, evictions = 0;
  DbFlushStats flush;

  static Counters Of(const Db& db) {
    Counters c;
    c.lsm = db.stats();
    c.hits = db.block_cache()->hits();
    c.misses = db.block_cache()->misses();
    c.evictions = db.block_cache()->evictions();
    c.flush = db.flush_stats();
    return c;
  }
};

uint64_t Delta(const std::atomic<uint64_t>& after,
               const std::atomic<uint64_t>& before) {
  return after.load() - before.load();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------ output

void WriteSpans(const std::string& path,
                const std::vector<const std::vector<Span>*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "perfbench-spans v1 rid:u64 name:u32 parent:i32 "
                  "start_ns:u64 end_ns:u64\n");
  for (uint32_t n = 0; n < kNumSpanNames; ++n) {
    std::fprintf(f, "%s%s", n ? "," : "", kSpanNames[n]);
  }
  std::fprintf(f, "\n");
  int64_t base = 0;
  for (const auto* spans : buffers) {
    for (Span s : *spans) {
      if (s.parent >= 0) s.parent += static_cast<int32_t>(base);
      std::fwrite(&s.rid, 8, 1, f);
      std::fwrite(&s.name, 4, 1, f);
      std::fwrite(&s.parent, 4, 1, f);
      std::fwrite(&s.start_ns, 8, 1, f);
      std::fwrite(&s.end_ns, 8, 1, f);
    }
    base += static_cast<int64_t>(spans->size());
  }
  std::fclose(f);
}

void PrintJson(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"shape\": [",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (size_t i = 0; i < r.shape.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", r.shape[i]);
  }
  std::printf("], \"notes\": [");
  for (size_t i = 0; i < r.notes.size(); ++i) {
    std::string escaped;
    for (char ch : r.notes[i]) {
      if (ch == '"' || ch == '\\') escaped += '\\';
      escaped += ch;
    }
    std::printf("%s\"%s\"", i ? ", " : "", escaped.c_str());
  }
  std::printf("], \"build\": {\"compiler\": \"%s\", \"build_type\": "
              "\"%s\", \"flags\": \"%s\"}, \"metrics\": {",
              __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"values\": [", first ? "" : ", ",
                name.c_str());
    for (size_t i = 0; i < m.values.size(); ++i) {
      std::printf("%s%.17g", i ? ", " : "",
                  std::isfinite(m.values[i]) ? m.values[i] : 0.0);
    }
    std::printf("], \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// -------------------------------------------------------------- runs

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

Dataset UpperHalf(const Dataset& d) {
  Dataset out;
  for (uint64_t k : d.keys) {
    if (k >= kUpperHalf) out.keys.push_back(k);
  }
  for (uint64_t k : d.sorted_keys) {
    if (k >= kUpperHalf) out.sorted_keys.push_back(k);
  }
  return out;
}

Inputs MakeWorkloadInputs(const Config& cfg, uint64_t seed) {
  if (cfg.ingest) {
    return MakeInputs(UpperHalf(bloomrf::MakeDataset(
                          cfg.keys * 2, bloomrf::Distribution::kUniform, seed)),
                      seed, kUpperHalf, 200000);
  }
  return MakeInputs(
      bloomrf::MakeDataset(cfg.keys, bloomrf::Distribution::kUniform, seed),
      seed, 0, 100000);
}

void AddClients(Report& report, const PhaseResult& p) {
  report.attempted += p.Sum(&Client::attempted);
  report.failed += p.Sum(&Client::failed);
}

/// Runs cfg.phases in cycles of about kCycleSeconds for `seconds` and
/// records each phase of each cycle as one slice. Cycle 0 is not
/// recorded: it brings the block cache's LRU order and the client's
/// memory into the state every later cycle sees.
void ReadCycles(Db& db, const Inputs& in, const Config& cfg, double seconds,
                Slices& slices, Report& report) {
  const int cycles =
      std::max(2, static_cast<int>(std::lround(seconds / kCycleSeconds)));
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& [op, share] : cfg.phases) {
      PhaseResult p = ReadPhase(db, in, op, cfg.read_clients,
                                seconds * share / cycles, false);
      AddClients(report, p);
      if (cycle == 0) continue;
      if (op == kDbGet) {
        slices.AddLatency("get", p.Merge(&Client::get_ns));
        slices.Add("get_ops_s", p.Sum(&Client::gets) / p.seconds, "1/s");
      } else if (op == kDbMultiGet) {
        slices.Add("multiget_keys_s",
                   p.Sum(&Client::multiget_keys) / p.seconds, "1/s");
      } else {
        slices.AddLatency("scan", p.Merge(&Client::scan_ns));
        slices.Add("scan_ranges_s", p.Sum(&Client::ranges) / p.seconds,
                   "1/s");
      }
    }
  }
}

/// The ingest workload's read stream once the writers reached op `done`
/// and the tree is quiescent: a recently written key (present unless
/// its delete already ran), then a preloaded-or-absent point of `in`,
/// in turn. Ranges stay those of `in`, over the preload.
Inputs FreshInputs(const Inputs& in, const std::vector<WriterStream>& streams,
                   size_t done, uint64_t seed) {
  Inputs fresh;
  fresh.data = in.data;
  fresh.ranges = in.ranges;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + done);
  const size_t window = std::min<size_t>(done, 50000);
  for (size_t i = 0; i < in.points.size() && window > 0; ++i) {
    const WriterStream& st = streams[i % streams.size()];
    size_t op = done - 1 - rng.Uniform(window);
    if (st.is_delete[op]) --op;
    fresh.points.push_back({st.key[op], st.deleted_at[op] >= done});
    fresh.points.push_back(in.points[i]);
  }
  return fresh;
}

/// Runs the setup and notes it.
Setup SetupOnce(const Config& cfg, const Inputs& in,
                const std::shared_ptr<FilterPolicy>& policy,
                const std::string& dir, bool trace, Report& report) {
  Setup s = RunSetup(cfg, in.data, policy, dir, trace);
  report.attempted += s.attempted;
  report.failed += s.failed;
  report.shape = s.shape;
  report.Note(Fmt("setup: %.3f s (load+settle %.3f s), files per level %s",
                  s.total_s, s.ingest_s, ShapeString(s.shape).c_str()));
  return s;
}

Report RunEndToEnd(const Config& cfg, const Args& args) {
  Report report;
  auto policy = MakePolicy();
  const uint64_t start = NowNs();
  const Inputs in = MakeWorkloadInputs(cfg, args.seed);
  report.Note(
      Fmt("inputs: %.3f s", static_cast<double>(NowNs() - start) / 1e9));
  Setup s = SetupOnce(cfg, in, policy, args.dir + "/db", false, report);
  Db& db = *s.db;
  report.Set("setup_s", s.total_s, "s");

  Slices slices;
  uint64_t live_keys = in.data.keys.size();
  if (!cfg.ingest) {
    report.Set("ingest_keys_s", in.data.keys.size() / s.ingest_s, "1/s");
    report.Set("put_p99_us", Summarize(s.put_ns, 99.0).tail_us, "us");
    StoreMetrics(s.dir, policy.get(), in, live_keys, report);
    ReadCycles(db, in, cfg, args.seconds, slices, report);
  } else {
    std::vector<WriterStream> streams =
        MakeWriterStreams(cfg, args.seed, args.seconds);
    const size_t ops = streams[0].key.size();
    double write_s = 0;
    for (int round = 0; round < kIngestRounds; ++round) {
      const size_t end = ops * (round + 1) / kIngestRounds;
      IngestResult r = RunIngest(db, in, args.seed, ops * round / kIngestRounds,
                                 end, false, streams);
      AddClients(report, r.writers);
      AddClients(report, r.reader);
      write_s += r.write_s;
      slices.AddLatency("put", r.writers.Merge(&Client::put_ns));
      // The reader beside the writers shares the cores with them and
      // the background work, so its figures are notes.
      slices.AddLatency("churn_get", r.reader.Merge(&Client::get_ns));
      slices.Add("churn_get_ops_s",
                 r.reader.Sum(&Client::gets) / r.reader.seconds, "1/s");
      report.Note(Fmt("ingest round %d: %" PRIu64 " ops in %.3f s, files per "
                      "level %s",
                      round + 1, r.ops, r.write_s,
                      ShapeString(db.level_table_counts()).c_str()));
    }
    // Rounds differ by design (each finds a larger tree), so the rate is
    // taken over all of them.
    report.Set("ingest_keys_s", ops * kWriters / write_s, "1/s");
    slices.values.erase("put_p50_us");  // only the tail is a metric
    SweepIngest(db, in.data, streams, report);
    for (const auto& st : streams) {
      for (size_t i = 0; i < st.key.size(); ++i) {
        if (!st.is_delete[i] && st.deleted_at[i] == kNever) ++live_keys;
      }
    }
    // The store and read metrics come from the tree a full compaction
    // made of the ingest: its shape is a function of the seed, while
    // the shape the background picks leave depends on timing.
    ++report.attempted;
    if (!db.CompactAll()) ++report.failed;
    report.Note("after a full compaction, files per level " +
                ShapeString(db.level_table_counts()));
    StoreMetrics(s.dir, policy.get(), in, live_keys, report);
    ReadCycles(db, FreshInputs(in, streams, ops, args.seed), cfg,
               args.seconds * kIngestReadShare, slices, report);
  }
  slices.Report(report);
  return report;
}

/// The traced run: root spans around every Db call, per-op counter
/// deltas on the settled store, and a replay of the same streams
/// through the layers' public functions.
Report RunTraced(const Config& cfg, const Args& args) {
  Report report;
  auto policy = MakePolicy();
  const Inputs in = MakeWorkloadInputs(cfg, args.seed);
  Setup s = SetupOnce(cfg, in, policy, args.dir + "/db", true, report);
  Db& db = *s.db;
  std::vector<const std::vector<Span>*> buffers{&s.tracer.spans()};

  // The write phase: the load for the read workloads, the mixed phase
  // for ingest_mixed.
  Counters w0;  // a fresh Db: every counter starts at zero
  double user_bytes = static_cast<double>(in.data.keys.size()) *
                      (8 + kValueSize);
  std::vector<double> put_ns;
  for (const Span& sp : s.tracer.spans()) put_ns.push_back(sp.duration());
  std::vector<WriterStream> streams;
  IngestResult ingest;
  if (cfg.ingest) {
    w0 = Counters::Of(db);
    streams = MakeWriterStreams(cfg, args.seed, args.seconds);
    ingest = RunIngest(db, in, args.seed, 0, streams[0].key.size(), true,
                       streams);
    AddClients(report, ingest.writers);
    AddClients(report, ingest.reader);
    put_ns.clear();
    for (const auto& c : ingest.writers.clients) {
      for (const Span& sp : c.tracer.spans()) {
        if (sp.name == kDbPut) put_ns.push_back(sp.duration());
      }
      buffers.push_back(&c.tracer.spans());
    }
    buffers.push_back(&ingest.reader.clients[0].tracer.spans());
    user_bytes = static_cast<double>(ingest.ops) * (8 + kValueSize);
  }
  const Counters w1 = Counters::Of(db);
  report.Set("lsm.wal.group_size",
             Ratio(Delta(w1.lsm.wal_appends, w0.lsm.wal_appends),
                   Delta(w1.lsm.group_commit_batches,
                         w0.lsm.group_commit_batches)),
             "count");
  report.Set("lsm.table_builder.flushes",
             static_cast<double>(w1.flush.sst_files - w0.flush.sst_files),
             "count");
  double busy_us = 0;
  for (size_t l = 0; l < LsmStats::kStatsLevels; ++l) {
    busy_us += Delta(w1.lsm.compaction_micros_level[l],
                     w0.lsm.compaction_micros_level[l]);
  }
  report.Set("lsm.compaction.busy_s", busy_us / 1e6, "s");
  report.Set("lsm.compaction.jobs",
             Delta(w1.lsm.compactions, w0.lsm.compactions), "count");
  report.Set("lsm.compaction.write_amp",
             Delta(w1.lsm.compaction_bytes_written,
                   w0.lsm.compaction_bytes_written) /
                 user_bytes,
             "ratio");
  auto shape = db.level_table_counts();
  shape.resize(std::max<size_t>(shape.size(), kReportedLevels));
  for (size_t l = 0; l < shape.size(); ++l) {
    report.Set("lsm.version.files_per_level.L" + std::to_string(l),
               shape[l], "count");
  }

  // Per-op counter deltas and the tracing overhead: each op type runs
  // once untraced and once traced on the settled store.
  const double probe_s = std::max(0.5, args.seconds * 0.1);
  std::vector<PhaseResult> probes;
  probes.reserve(4);
  double get_p50_ns[2] = {0, 0}, scan_p50_ns[2] = {0, 0};
  const Counters g0 = Counters::Of(db);
  for (int traced = 0; traced < 2; ++traced) {
    probes.push_back(ReadPhase(db, in, kDbGet, cfg.read_clients, probe_s,
                               traced == 1));
    auto ns = probes.back().Merge(&Client::get_ns);
    get_p50_ns[traced] = Summarize(ns, 50).p50_us * 1e3;
  }
  const Counters g1 = Counters::Of(db);
  for (int traced = 0; traced < 2; ++traced) {
    probes.push_back(ReadPhase(db, in, kDbScanRange, cfg.read_clients,
                               probe_s, traced == 1));
    auto ns = probes.back().Merge(&Client::scan_ns);
    scan_p50_ns[traced] = Summarize(ns, 50).p50_us * 1e3;
  }
  const Counters g2 = Counters::Of(db);
  uint64_t gets = 0, scans = 0, ranges = 0;
  for (const auto& p : probes) {
    AddClients(report, p);
    gets += p.Sum(&Client::gets);
    scans += p.Sum(&Client::scan_calls);
    ranges += p.Sum(&Client::ranges);
    for (const auto& c : p.clients) buffers.push_back(&c.tracer.spans());
  }
  auto probes_of = [](const Counters& a, const Counters& b) {
    return static_cast<double>(Delta(b.lsm.filter_probes, a.lsm.filter_probes));
  };
  auto tn_ratio = [](const Counters& a, const Counters& b) {
    const double tn = static_cast<double>(b.lsm.total_filter_true_negatives() -
                                          a.lsm.total_filter_true_negatives());
    const double fp = static_cast<double>(
        b.lsm.total_filter_false_positives() -
        a.lsm.total_filter_false_positives());
    return Ratio(tn, tn + fp);
  };
  auto blocks_of = [](const Counters& a, const Counters& b) {
    return static_cast<double>(b.hits - a.hits + b.misses - a.misses);
  };
  report.Set("core.bloomrf.point_probes_per_get",
             Ratio(probes_of(g0, g1), gets), "count");
  report.Set("core.bloomrf.point_true_negative_ratio", tn_ratio(g0, g1),
             "ratio");
  report.Set("core.bloomrf.range_probes_per_range",
             Ratio(probes_of(g1, g2), ranges), "count");
  report.Set("core.bloomrf.range_true_negative_ratio", tn_ratio(g1, g2),
             "ratio");
  report.Set("lsm.table_reader.blocks_per_get",
             Ratio(blocks_of(g0, g1), gets), "count");
  report.Set("lsm.table_reader.blocks_per_range",
             Ratio(blocks_of(g1, g2), ranges), "count");
  report.Set("lsm.block_cache.hit_ratio",
             Ratio(g2.hits - g0.hits, blocks_of(g0, g2)), "ratio");
  report.Set("lsm.block_cache.evictions_per_op",
             Ratio(g2.evictions - g0.evictions, gets + scans), "count");
  report.Set("lsm.block.bytes_read_per_op",
             Ratio(Delta(g2.lsm.bytes_read, g0.lsm.bytes_read), gets + scans),
             "bytes");
  // Read tails on the settled store, untraced. They are per-layer
  // (unbounded) metrics: end to end they did not repeat on a host whose
  // hypervisor steals CPU time (README.md).
  report.Set("lsm.db.get_p99_us",
             Summarize(probes[0].Merge(&Client::get_ns), 99.0).tail_us, "us");
  report.Set("lsm.db.scan_p99_us",
             Summarize(probes[2].Merge(&Client::scan_ns), 99.0).tail_us,
             "us");
  report.Set("trace.get_overhead_ratio", Ratio(get_p50_ns[1], get_p50_ns[0]),
             "ratio");
  report.Set("trace.scan_overhead_ratio", Ratio(scan_p50_ns[1], scan_p50_ns[0]),
             "ratio");

  // The replay.
  Replay rp(cfg.cache_bytes);
  if (!OpenLiveTables(s.dir, policy.get(), rp.table_cache, &rp.stats,
                      &rp.live)) {
    report.Fail("cannot open the live SSTs for the replay");
    return report;
  }
  for (const auto& t : rp.live.tables) {
    rp.index.push_back(std::make_unique<BlockIndex>());
    if (!rp.index.back()->Load(t->path()) || t->filter() == nullptr) {
      report.Fail("cannot read the block index or filter of " + t->path());
      return report;
    }
  }
  const size_t n_get = std::min<size_t>(in.points.size(), 20000);
  const size_t n_scan = std::min<size_t>(in.ranges.size() / kScanBatch, 500);
  std::vector<uint64_t> write_keys;
  if (cfg.ingest) {
    for (size_t i = 0; i < streams[0].key.size() && write_keys.size() < 150000;
         ++i) {
      if (!streams[0].is_delete[i]) write_keys.push_back(streams[0].key[i]);
    }
  } else {
    write_keys.assign(in.data.keys.begin(),
                      in.data.keys.begin() +
                          std::min<size_t>(in.data.keys.size(), 150000));
  }
  const WriteReplay wr =
      ReplayWrites(rp, cfg, policy.get(), write_keys, args.dir);

  std::vector<uint64_t> los(n_scan * kScanBatch), his(n_scan * kScanBatch);
  for (size_t i = 0; i < los.size(); ++i) {
    los[i] = in.ranges[i].lo;
    his[i] = in.ranges[i].hi;
  }
  // The same Get and ScanRange streams through Db, one client, so the
  // sum of layers compares like with like. Each pass runs twice; the
  // first run fills the caches as the timed phases found them and is
  // not recorded.
  Tracer db_tr(true);
  Client db_client(false);
  double checked = 0;
  auto twice = [&](auto&& pass) {
    const uint64_t failed_before = rp.failed;
    db_tr.set_on(false);
    rp.tracer.set_on(false);
    pass();
    rp.failed = failed_before;
    db_tr.set_on(true);
    rp.tracer.set_on(true);
    pass();
  };
  auto batch = [&](const std::vector<uint64_t>& v, size_t b) {
    return std::span<const uint64_t>(v.data() + b * kScanBatch, kScanBatch);
  };
  twice([&] {
    std::string value;
    for (size_t i = 0; i < n_get; ++i) {
      const PointQuery& q = in.points[i];
      const uint64_t t0 = NowNs();
      const bool found = db.Get(q.key, &value);
      db_tr.Root(kDbGet, i, t0, NowNs());
      db_client.Check(found == q.present &&
                      (!found || ValueIs(q.key, value)));
    }
  });
  twice([&] {
    checked = 0;
    for (size_t i = 0; i < n_get; ++i) {
      checked += ReplayGet(rp, in.points[i], i);
    }
  });
  twice([&] {
    for (size_t i = 0; i < n_get; ++i) ReplayGetBlocks(rp, in.points[i], i);
  });
  twice([&] {
    for (size_t b = 0; b < n_scan; ++b) {
      const uint64_t t0 = NowNs();
      auto rows = db.ScanRange(batch(los, b), batch(his, b), kScanLimit);
      db_tr.Root(kDbScanRange, b, t0, NowNs());
      for (size_t k = 0; k < kScanBatch; ++k) {
        db_client.Check(RowsMatch(in.data, in.ranges[b * kScanBatch + k],
                                  rows[k]));
      }
    }
  });
  twice([&] {
    for (size_t b = 0; b < n_scan; ++b) {
      ReplayScan(rp, batch(los, b), batch(his, b), b);
    }
  });
  twice([&] {
    for (size_t b = 0; b < n_scan; ++b) {
      ReplayScanBlocks(rp, batch(los, b), batch(his, b), b);
    }
  });
  ReplayBlockReads(rp, 64);
  report.attempted += db_client.attempted + n_get;
  report.failed += db_client.failed + rp.failed;
  const std::vector<Span>& spans = rp.tracer.spans();
  buffers.push_back(&spans);
  buffers.push_back(&db_tr.spans());

  const auto self = SelfTimesByName(spans, kNumSpanNames);
  const auto db_self = SelfTimesByName(db_tr.spans(), kNumSpanNames);
  auto median_of = [&](uint32_t name) { return Median(self[name]); };
  const LayerSum get_sum =
      SumOfLayers(Median(db_self[kDbGet]), spans, kReplayGet);
  const LayerSum scan_sum =
      SumOfLayers(Median(db_self[kDbScanRange]), spans, kReplayScan);
  const LayerSum put_sum = SumOfLayers(Median(put_ns), spans, kReplayPut);
  report.Set("lsm.db.get_traced_p50_ns", get_sum.end_to_end_ns, "ns");
  report.Set("lsm.db.get_layers_sum_ns", get_sum.layers_ns, "ns");
  report.Set("lsm.db.get_self_ns", get_sum.residual_ns, "ns");
  report.Set("lsm.db.tables_checked_per_get", checked / n_get, "count");
  report.Set("lsm.db.scan_traced_p50_ns", scan_sum.end_to_end_ns, "ns");
  report.Set("lsm.db.scan_layers_sum_ns", scan_sum.layers_ns, "ns");
  report.Set("lsm.db.scan_merge_ns", scan_sum.residual_ns, "ns");
  report.Set("lsm.db.put_traced_p50_ns", put_sum.end_to_end_ns, "ns");
  report.Set("lsm.db.put_layers_sum_ns", put_sum.layers_ns, "ns");
  report.Set("lsm.db.put_self_ns", put_sum.residual_ns, "ns");
  report.Set("core.bloomrf.point_probe_ns", median_of(kFilterPoint), "ns");
  report.Set("core.bloomrf.range_probe_ns",
             median_of(kFilterRange) / kScanBatch, "ns");
  report.Set("core.bloomrf.build_ns_per_key",
             Ratio(wr.filter_s * 1e9, wr.built_keys), "ns");
  report.Set("lsm.table_reader.find_ns", median_of(kTableFind), "ns");
  report.Set("lsm.block_cache.lookup_ns", median_of(kCacheLookup), "ns");
  report.Set("lsm.block.read_ns", median_of(kBlockRead), "ns");
  report.Set("lsm.block.parse_ns", median_of(kBlockParse), "ns");
  report.Set("lsm.memtable.insert_ns", median_of(kMemInsert), "ns");
  report.Set("lsm.memtable.find_ns", median_of(kMemFind), "ns");
  report.Set("lsm.wal.append_ns", median_of(kWalAppend), "ns");
  report.Set("lsm.table_builder.flush_s", Ratio(wr.build_s, wr.builds), "s");
  report.Note(Fmt("Get, 1 client: traced Db median %.0f ns = layers %.0f ns "
                  "+ Db self %.0f ns; tracing overhead x%.3f",
                  get_sum.end_to_end_ns, get_sum.layers_ns,
                  get_sum.residual_ns, Ratio(get_p50_ns[1], get_p50_ns[0])));
  report.Note(Fmt("ScanRange(%zu), 1 client: traced Db median %.0f ns = "
                  "layers %.0f ns + merge %.0f ns; tracing overhead x%.3f",
                  kScanBatch, scan_sum.end_to_end_ns, scan_sum.layers_ns,
                  scan_sum.residual_ns, Ratio(scan_p50_ns[1], scan_p50_ns[0])));
  report.Note(Fmt("Put: traced Db median %.0f ns = layers %.0f ns + Db self "
                  "%.0f ns",
                  put_sum.end_to_end_ns, put_sum.layers_ns,
                  put_sum.residual_ns));
  if (!args.trace_out.empty()) WriteSpans(args.trace_out, buffers);
  return report;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") a->workload = val;
    else if (flag == "--seed") a->seed = std::strtoull(val.c_str(), nullptr, 0);
    else if (flag == "--seconds") a->seconds = std::atof(val.c_str());
    else if (flag == "--trace") a->trace = val == "1";
    else if (flag == "--dir") a->dir = val;
    else if (flag == "--trace-out") a->trace_out = val;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->dir.empty() &&
         a->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lsm_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--trace-out FILE]\n");
    return 2;
  }
  const auto cfg = MakeConfig(args.workload);
  if (!cfg) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  const Report report =
      args.trace ? RunTraced(*cfg, args) : RunEndToEnd(*cfg, args);
  std::filesystem::remove_all(args.dir + "/db");
  PrintJson(report);
  return 0;
}
