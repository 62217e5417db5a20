// Distribution-free confidence intervals for medians and for the difference
// of two medians (Price & Bonett, "Distribution-Free Confidence Intervals
// for Difference and Ratio of Medians", J. Stat. Comput. Simul. 72(2), 2002).
//
// This is the statistical machinery of §3.4 of the paper: when comparing two
// aggregations (current vs baseline for degradation, preferred vs alternate
// for opportunity), the analyzers compute the difference of medians and its
// 95% confidence interval without assuming normality, then test the lower
// bound of the interval against a threshold.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stats/tdigest.h"

namespace fbedge {

/// A two-sided confidence interval [lower, upper] around a point estimate.
struct ConfidenceInterval {
  double estimate{0};
  double lower{0};
  double upper{0};

  double width() const { return upper - lower; }
  bool contains(double x) const { return lower <= x && x <= upper; }
};

/// Confidence interval for the median of a sample.
///
/// Uses the order-statistic interval: ranks l = floor((n - z*sqrt(n))/2) and
/// u = n - l + 1 (1-based) bracket the median with coverage >= alpha by the
/// binomial argument; values are interpolated from the sorted sample.
/// Requires n >= 5; alpha in (0, 1), default 0.95.
///
/// `values` is copied into `scratch` (whose capacity is reused across
/// calls) and the handful of bracketing order statistics are selected with
/// std::nth_element — O(n) per call instead of a full sort, and an exact
/// order statistic is an exact order statistic either way, so the interval
/// is bitwise identical to the sort-based computation.
ConfidenceInterval median_confidence_interval(std::span<const double> values,
                                              std::vector<double>& scratch,
                                              double alpha = 0.95);

/// Same interval computed from a t-digest sketch instead of raw samples,
/// as a streaming system would (paper footnote 11), with n the digest's
/// point count: summarize_median(digest, confidence_z(alpha)).ci.
ConfidenceInterval median_confidence_interval(const TDigest& digest, double alpha = 0.95);

/// Price-Bonett confidence interval for the difference of medians
/// median(a) - median(b) of two independent samples.
///
/// The standard error of each median is recovered from its order-statistic
/// interval (se = width / (2 z)); the difference interval is
/// (m_a - m_b) +/- z * sqrt(se_a^2 + se_b^2). `scratch` is reused for both
/// sides' selections.
ConfidenceInterval median_difference_interval(std::span<const double> a,
                                              std::span<const double> b,
                                              std::vector<double>& scratch,
                                              double alpha = 0.95);

/// The z of a two-sided interval at confidence alpha:
/// normal_quantile(0.5 + alpha / 2). An analysis takes it once and hands it
/// to every summary it builds.
double confidence_z(double alpha);

/// Everything a sketch-based difference of medians reads from one side:
/// the point count, the z the interval was taken at, and the median CI
/// (estimate = p50). A summary is fixed-size, so comparing a window
/// against a baseline, or keeping a baseline history, copies five
/// numbers instead of a t-digest.
struct MedianSummary {
  std::uint64_t count{0};
  double z{0};
  /// lower/upper are NaN below 5 points, where no interval exists; the
  /// estimate is quantile(0.5) at any count (NaN when empty).
  ConfidenceInterval ci;

  MedianSummary() = default;
  /// summarize_median(digest, confidence_z(alpha)). Implicit, so a digest
  /// can be passed wherever one side of a comparison is expected.
  MedianSummary(const TDigest& digest, double alpha = 0.95);
};

/// The count and median CI of `digest` at z, from one TDigest::quantiles
/// walk over the interval's three ascending quantiles: bitwise what three
/// quantile() calls give.
MedianSummary summarize_median(const TDigest& digest, double z);

/// Price-Bonett difference-of-medians interval median(a) - median(b), as
/// for samples above, from two summaries taken at the same z. Both sides
/// need at least 5 points.
ConfidenceInterval median_difference_interval(const MedianSummary& a,
                                              const MedianSummary& b);

/// Inverse standard normal CDF (Acklam's rational approximation, |err|<1e-9).
double normal_quantile(double p);

}  // namespace fbedge
