// Statistically controlled comparison of aggregations (§3.4, §3.4.1).
//
// Comparisons only count when they are precise enough to support
// conclusions: both sides need >= 30 samples, and the confidence interval
// of the difference of medians must be "tight" (< 10 ms for MinRTT_P50,
// < 0.1 for HDratio_P50). An event (degradation / opportunity) is declared
// only when the *lower bound* of the CI clears the configured threshold.
#pragma once

#include <optional>

#include "agg/aggregation.h"
#include "agg/cell_summary.h"
#include "stats/median_ci.h"

namespace fbedge {

struct ComparisonConfig {
  double alpha{0.95};
  int min_samples{30};
  /// Maximum CI width for a MinRTT_P50 comparison to be valid.
  Duration max_ci_width_rtt{10 * kMillisecond};
  /// Maximum CI width for an HDratio_P50 comparison to be valid.
  double max_ci_width_hd{0.1};
};

enum class Validity : std::uint8_t {
  kValid,
  kTooFewSamples,
  kCiTooWide,
  kMissing,
};

/// One validated difference-of-medians comparison.
struct Comparison {
  Validity validity{Validity::kMissing};
  /// Difference CI; the caller defines the direction (e.g. current -
  /// baseline for MinRTT degradation).
  ConfidenceInterval diff;

  bool valid() const { return validity == Validity::kValid; }

  /// Event test: the difference exceeds `threshold` with confidence —
  /// i.e. the CI lower bound is above it.
  bool exceeds(double threshold) const { return valid() && diff.lower > threshold; }
};

/// MinRTT_P50 difference a - b (positive = a has higher/worse MinRTT).
/// Both summaries must be taken at confidence_z(config.alpha).
Comparison compare_minrtt(const CellSummary& a, const CellSummary& b,
                          const ComparisonConfig& config);

/// HDratio_P50 difference a - b (positive = a has higher/better HDratio).
Comparison compare_hdratio(const CellSummary& a, const CellSummary& b,
                           const ComparisonConfig& config);

/// The same comparisons on two cells, summarized at config.alpha first.
Comparison compare_minrtt(const RouteWindowAgg& a, const RouteWindowAgg& b,
                          const ComparisonConfig& config);
Comparison compare_hdratio(const RouteWindowAgg& a, const RouteWindowAgg& b,
                           const ComparisonConfig& config);

/// Mean-based variants (footnote 10 ablation): difference of means with a
/// normal-approximation CI from the Welford accumulators. Subject to the
/// skew effects §3.3 aggregates to percentiles to avoid.
Comparison compare_minrtt_mean(const RouteWindowAgg& a, const RouteWindowAgg& b,
                               const ComparisonConfig& config);
Comparison compare_hdratio_mean(const RouteWindowAgg& a, const RouteWindowAgg& b,
                                const ComparisonConfig& config);

}  // namespace fbedge
