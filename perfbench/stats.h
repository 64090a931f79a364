// Statistics of the LSM benchmark: the percentile rule for latency
// samples, and the span arithmetic of the traced run (self time,
// sum of layers, residual against the end-to-end median).
//
// Header-only and free of library dependencies so stats_test.cc can
// check every rule on hand-made inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/// Percentiles a tail metric may fall back to, highest first.
inline constexpr double kTailLadder[] = {99.99, 99.9, 99.0, 95.0,
                                         90.0,  75.0, 50.0};

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples (the rank is ceil(p/100 * n), 1-based).
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  // The guard keeps a rank that is integral on paper (99% of 1000)
  // from rounding up on a floating-point error.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  if (rank == 0) rank = 1;
  return n - std::min(rank, n);
}

/// The percentile rule: the highest percentile, not above `wanted`,
/// that has at least ten samples beyond it. Returns 0 when even the
/// median lacks ten samples beyond it (fewer than 20 samples).
inline double SupportedPercentile(size_t n, double wanted) {
  for (double p : kTailLadder) {
    if (p <= wanted && SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

/// Nearest-rank percentile of `v` (reorders `v`). `v` must be non-empty.
template <typename T>
T Percentile(std::vector<T>& v, double p) {
  const size_t beyond = SamplesBeyond(v.size(), p);
  const size_t idx = v.size() - beyond - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Median of a copy of `v`; 0 for an empty input.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// One traced interval. `parent` indexes the span that caused it in the
/// same buffer (-1 for a root); spans of one request share `rid`.
struct Span {
  uint64_t rid = 0;
  uint32_t name = 0;
  int32_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t duration() const { return end_ns - start_ns; }
};

/// Length of the union of `intervals`, each clipped to [lo, hi].
inline uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                          uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t reach = lo;  // everything below `reach` is already counted
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += e - s;
    reach = e;
  }
  return covered;
}

/// Per span: the part of its interval its children cover, counting
/// time where children overlap once.
inline std::vector<uint64_t> ChildCoverage(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<uint64_t> out(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!children[i].empty()) {
      out[i] = CoveredNs(std::move(children[i]), spans[i].start_ns,
                         spans[i].end_ns);
    }
  }
  return out;
}

/// Self time: a span's duration minus the time its children cover.
inline std::vector<uint64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<uint64_t> self = ChildCoverage(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() - self[i];
  }
  return self;
}

/// Self times grouped by span name (`names` = one past the largest).
inline std::vector<std::vector<double>> SelfTimesByName(
    std::span<const Span> spans, uint32_t names) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::vector<std::vector<double>> out(names);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name < names) {
      out[spans[i].name].push_back(static_cast<double>(self[i]));
    }
  }
  return out;
}

/// The sum-of-layers breakdown of one request type: the median of the
/// end-to-end calls, the median over replayed requests of the time
/// their layer spans cover (the children of each `root` span), and the
/// residual — the time the end-to-end call spends outside the layers.
struct LayerSum {
  double end_to_end_ns = 0;
  double layers_ns = 0;
  double residual_ns = 0;
};

inline LayerSum SumOfLayers(double end_to_end_median_ns,
                            std::span<const Span> replay, uint32_t root) {
  const std::vector<uint64_t> covered = ChildCoverage(replay);
  std::vector<double> layers;
  for (size_t i = 0; i < replay.size(); ++i) {
    if (replay[i].name == root && replay[i].parent < 0) {
      layers.push_back(static_cast<double>(covered[i]));
    }
  }
  LayerSum out;
  out.end_to_end_ns = end_to_end_median_ns;
  out.layers_ns = Median(std::move(layers));
  out.residual_ns = out.end_to_end_ns - out.layers_ns;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
