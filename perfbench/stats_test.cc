// Tests of the benchmark's own statistics (perfbench/stats.h): the
// percentile rule, self time under overlapping child spans, and the
// sum-of-layers residual. Exits non-zero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  using perfbench::SamplesBeyond;
  using perfbench::SupportedPercentile;
  // Nearest rank of p99 in 1000 samples is 990: ten samples beyond.
  Check(SamplesBeyond(1000, 99.0) == 10, "p99 of 1000 has 10 beyond");
  Check(SamplesBeyond(999, 99.0) == 9, "p99 of 999 has 9 beyond");
  Check(SupportedPercentile(1000, 99.0) == 99.0, "1000 samples support p99");
  Check(SupportedPercentile(999, 99.0) == 95.0, "999 samples fall to p95");
  Check(SupportedPercentile(100000, 99.0) == 99.0, "never above the wanted");
  Check(SupportedPercentile(100000, 100.0) == 99.99, "1e5 samples: p99.99");
  Check(SupportedPercentile(20, 99.0) == 50.0, "20 samples: only the median");
  Check(SupportedPercentile(19, 99.0) == 0.0, "19 samples: nothing");

  std::vector<int> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, reversed
  Check(perfbench::Percentile(v, 99.0) == 990, "p99 of 1..1000 is 990");
  Check(perfbench::Percentile(v, 50.0) == 500, "p50 of 1..1000 is 500");
  Check(perfbench::Median({3, 1, 2}) == 2, "odd median");
  Check(perfbench::Median({4, 1, 2, 3}) == 2.5, "even median");
}

void TestSelfTime() {
  using perfbench::Span;
  // Root [0, 100) with children [10, 40) and [30, 60) that overlap by
  // 10, and [90, 120) that runs past the root's end.
  std::vector<Span> spans = {
      {1, 0, -1, 0, 100},
      {1, 1, 0, 10, 40},
      {1, 1, 0, 30, 60},
      {1, 2, 0, 90, 120},
      {1, 3, 1, 15, 20},  // grandchild: covered by its parent only
  };
  const auto self = perfbench::SelfTimes(spans);
  Check(self[0] == 100 - 50 - 10, "root self time counts overlap once");
  Check(self[1] == 30 - 5, "child self time excludes the grandchild");
  Check(self[2] == 30, "leaf self time is its duration");
  Check(self[3] == 30, "leaf past the root keeps its duration");
  const auto by_name = perfbench::SelfTimesByName(spans, 4);
  Check(by_name[1] == std::vector<double>{25, 30}, "self times by name");
  Check(by_name[0] == std::vector<double>{40}, "root self time by name");
  Check(perfbench::CoveredNs({{5, 10}, {0, 3}, {2, 4}}, 0, 100) == 9,
        "union of unsorted overlapping intervals");
  Check(perfbench::CoveredNs({{0, 50}}, 20, 30) == 10, "clip to the parent");
}

void TestSumOfLayers() {
  using perfbench::Span;
  // Two replayed requests (root name 7) whose layers cover 40 and 60 ns;
  // a root of another name must not count.
  std::vector<Span> replay = {
      {1, 7, -1, 0, 100}, {1, 1, 0, 0, 30},  {1, 2, 0, 30, 40},
      {2, 7, -1, 200, 300}, {2, 1, 3, 210, 270},
      {3, 8, -1, 400, 500}, {3, 1, 5, 400, 500},
  };
  const auto sum = perfbench::SumOfLayers(80.0, replay, 7);
  Check(sum.end_to_end_ns == 80.0, "end-to-end median passes through");
  Check(sum.layers_ns == 50.0, "median of per-request layer sums");
  Check(sum.residual_ns == 30.0, "residual = end to end - layers");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestSumOfLayers();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
