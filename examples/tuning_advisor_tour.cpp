// Tuning-advisor tour (paper Sect. 7): shows how the advisor's choice
// of delta ladder, exact level, replica counts and segment split
// shifts with the memory budget and the target query-range size, and
// reports the analytic FPR forecast for each configuration — the
// paper's "Figure C" advisor example as a walk-through.
//
// The closing act runs the advisor live inside the LSM engine: an
// AdaptiveFilterPolicy Db observes its own query stream through the
// workload sampler, plans a backend at flush, and re-tunes the tree
// via CompactAll when the workload shifts.
//
//   $ ./examples/tuning_advisor_tour

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/fpr_model.h"
#include "core/tuning_advisor.h"
#include "lsm/db.h"
#include "util/random.h"

using namespace bloomrf;

int main() {
  const uint64_t n = 50'000'000;  // the paper's 50M-key running example

  std::printf("advisor configurations for n = 50M keys, d = 64\n\n");
  std::printf("%-6s %-10s %-60s %10s %10s\n", "bpk", "max range", "config",
              "rangeFPR", "pointFPR");
  for (double bpk : {10.0, 14.0, 16.0, 22.0}) {
    for (double range : {64.0, 1e6, 1e10}) {
      AdvisorParams params;
      params.n = n;
      params.total_bits = static_cast<uint64_t>(bpk * n);
      params.max_range = range;
      AdvisorResult result = AdviseConfig(params);
      std::printf("%-6.0f %-10.0e %-60s %10.4f %10.4f\n", bpk, range,
                  result.config.DebugString().c_str(),
                  result.expected_range_fpr, result.expected_point_fpr);
    }
  }

  // The paper's Sect. 7 worked example: 14 bits/key -> exact level 36,
  // delta ladder (7,7,7,7,4,2,2)-ish, replicated top hash.
  std::printf("\npaper's worked example (n=50M, 14 bits/key, R=1e10):\n");
  AdvisorParams params;
  params.n = n;
  params.total_bits = 14 * n;
  params.max_range = 1e10;
  AdvisorResult result = AdviseConfig(params);
  std::printf("  %s\n", result.config.DebugString().c_str());
  std::printf("  exact level %u (paper: ~36), layers %zu\n",
              result.config.TopLevel(), result.config.num_layers());

  // Per-level FPR forecast of the chosen configuration.
  FprModelResult model = EvaluateFprModel(result.config, n);
  std::printf("\nper-level FPR forecast (levels 0..%u):\n  ",
              result.config.TopLevel());
  for (uint32_t l = 0; l <= result.config.TopLevel(); l += 4) {
    std::printf("l%u=%.3f ", l, model.fpr_per_level[l]);
  }
  std::printf("\n");

  // ---- The advisor in the loop: live workload-adaptive filtering ----
  // A measured range-width histogram replaces the scalar max_range
  // guess: AdvisorParams::range_weights carries the sampler's log2
  // buckets, and the planner scores every registered backend against
  // the observed point/range mix.
  std::printf("\nlive tuning loop (AdaptiveFilterPolicy inside the Db):\n");
  const std::string dir = "/tmp/bloomrf_tour_adaptive";
  std::filesystem::remove_all(dir);
  {
    auto policy = NewAdaptiveFilterPolicy({.bits_per_key = 16.0});
    AdaptiveFilterPolicy* adaptive = policy.get();
    DbOptions options;
    options.dir = dir;
    options.filter_policy = std::move(policy);
    options.memtable_bytes = 8 << 20;
    options.wal = false;
    Db db(options);  // the policy wires a workload sampler automatically
    Rng rng(0x70ad);
    for (int i = 0; i < 50'000; ++i) db.Put(rng.Next(), "v");

    // Act 1: point-only traffic, then flush. The planner sees a
    // point-pure histogram and picks a point-optimal backend.
    std::string value;
    Rng query(0x70ae);
    for (int q = 0; q < 20'000; ++q) db.Get(query.Next(), &value);
    db.Flush();
    FilterPlan plan = adaptive->LastPlan();
    std::printf("  after point-only phase:  %s\n", plan.rationale.c_str());

    // Act 2: the workload shifts to wide ranges. Reset the sampler's
    // memory of the old mix, observe the new one, and re-tune the
    // whole tree with a manual full compaction.
    db.workload_sampler()->Reset();
    for (int q = 0; q < 20'000; ++q) {
      uint64_t lo = query.Next() >> 1;
      db.RangeMayMatch(lo, lo + (uint64_t{1} << 28));
    }
    db.CompactAll();
    plan = adaptive->LastPlan();
    std::printf("  after wide-range shift:  %s\n", plan.rationale.c_str());
    std::printf("  (planned builds %llu, fallback builds %llu)\n",
                static_cast<unsigned long long>(adaptive->planned_builds()),
                static_cast<unsigned long long>(adaptive->fallback_builds()));
  }
  std::filesystem::remove_all(dir);
  return 0;
}
