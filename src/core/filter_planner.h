// Filter planner: the decision half of the adaptive tuning loop.
//
// Consumes a WorkloadSnapshot (point/range mix + range-width
// histogram), a per-table key count and a bits-per-key budget, scores
// every candidate filter backend with the analytic models in
// core/fpr_model.h + core/tuning_advisor.h, and emits the backend name
// (a FilterRegistry key) plus its construction parameters. Proteus
// (Knorr et al., SIGMOD '22) is the template: sample recent queries,
// model the FPR of each candidate design, pick the cheapest.
//
// Candidates and their models:
//  - bloomrf        AdviseConfig over the measured range-width
//                   histogram (delta ladder, exact layer, replicas,
//                   segment split) — the paper's tuning advisor fed
//                   live weights instead of one static max_range;
//  - blocked_bloom  BasicPointFpr; range FPR 1 (cannot exclude
//                   ranges). One cache line per probe, so it carries
//                   the smallest probe-cost term — the pick for
//                   point-only workloads;
//  - bloom          same FPR model, k scattered cache lines per probe;
//  - rosetta        per-level Bloom ladder sized BottomHeavy; narrow
//                   ranges only — wide ranges blow its budget;
//  - prefix_bloom   one Bloom over keys + fixed-width prefixes; the
//                   prefix width is chosen from the histogram median.
//
// The planner also accepts measured per-backend feedback (false
// positives the LSM actually observed: filter said maybe, data block
// said no). When a backend's measured FPR exceeds its model's
// prediction, its score is scaled by the divergence — the loop's
// "distrust a model that reality contradicts" correction.

#ifndef BLOOMRF_CORE_FILTER_PLANNER_H_
#define BLOOMRF_CORE_FILTER_PLANNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/workload_sampler.h"

namespace bloomrf {

/// Measured probe outcomes of a filter (one table's, or one backend's
/// summed over the live tables that carry it). "false" counts
/// filter-passed probes the data blocks then rejected; "negatives" are
/// filter rejections (always correct — the structures have no false
/// negatives).
struct FilterOutcomes {
  uint64_t point_false = 0;
  uint64_t point_negatives = 0;
  uint64_t range_false = 0;
  uint64_t range_negatives = 0;

  FilterOutcomes& operator+=(const FilterOutcomes& o);
  /// Measured FPR over the probes that had a definite outcome; -1
  /// when fewer than `min_probes` outcomes were observed.
  double MeasuredPointFpr(uint64_t min_probes) const;
  double MeasuredRangeFpr(uint64_t min_probes) const;
};

/// One backend's outcomes, aggregated for the planner.
struct BackendObservation : FilterOutcomes {
  std::string backend;  ///< FilterRegistry name, e.g. "bloomrf"
};

struct FilterFeedback {
  std::vector<BackendObservation> backends;

  const BackendObservation* Find(std::string_view backend) const;
  BackendObservation* FindOrAdd(std::string_view backend);
};

struct PlannerOptions {
  double bits_per_key = 16.0;
  /// Below this many samples the snapshot is noise: build the fallback.
  uint64_t min_samples = 32;
  /// Advisor C for the bloomrf candidate (point-error weight).
  double point_weight = 2.0;
  std::string fallback_backend = "bloomrf";
  double fallback_max_range = 1 << 16;
  /// Feedback gates: ignore observations with fewer definite outcomes,
  /// and cap the distrust multiplier (measured/predicted FPR).
  uint64_t feedback_min_probes = 512;
  double distrust_cap = 16.0;
};

/// One planning decision: which backend the next SST should carry and
/// how to build it. `backend` is a FilterRegistry name; when
/// `has_bloomrf_config` is set the full advisor-tuned BloomRFConfig is
/// attached (the registry's scalar bits_per_key/max_range path cannot
/// express it).
struct FilterPlan {
  std::string backend = "bloomrf";
  double bits_per_key = 16.0;
  double max_range = 1 << 16;
  uint32_t prefix_level = 16;
  bool has_bloomrf_config = false;
  BloomRFConfig bloomrf_config;
  /// Model outputs for the chosen candidate (feedback-adjusted).
  double predicted_point_fpr = 1.0;
  double predicted_range_fpr = 1.0;
  double predicted_cost = 1.0;
  bool used_fallback = false;  ///< too few samples: fallback built
  std::string rationale;       ///< one human-readable line
  /// Every scored candidate with its feedback-adjusted cost (ascending
  /// is NOT guaranteed; the chosen backend holds the minimum).
  std::vector<std::pair<std::string, double>> candidate_costs;
};

/// Scores every candidate for `table_keys` keys under the sampled
/// workload and returns the cheapest. `feedback` may be null.
FilterPlan PlanFilter(const WorkloadSnapshot& snapshot, uint64_t table_keys,
                      const PlannerOptions& options,
                      const FilterFeedback* feedback = nullptr);

}  // namespace bloomrf

#endif  // BLOOMRF_CORE_FILTER_PLANNER_H_
