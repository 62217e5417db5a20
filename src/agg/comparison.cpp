#include "agg/comparison.h"

#include <cmath>

namespace fbedge {

namespace {

Comparison compare_medians(const MedianSummary& a, const MedianSummary& b,
                           int min_samples, double max_width) {
  Comparison out;
  if (static_cast<int>(a.count) < min_samples || static_cast<int>(b.count) < min_samples) {
    out.validity = Validity::kTooFewSamples;
    return out;
  }
  out.diff = median_difference_interval(a, b);
  out.validity = out.diff.width() <= max_width ? Validity::kValid : Validity::kCiTooWide;
  return out;
}

}  // namespace

Comparison compare_minrtt(const CellSummary& a, const CellSummary& b,
                          const ComparisonConfig& config) {
  return compare_medians(a.minrtt, b.minrtt, config.min_samples, config.max_ci_width_rtt);
}

Comparison compare_hdratio(const CellSummary& a, const CellSummary& b,
                           const ComparisonConfig& config) {
  return compare_medians(a.hdratio, b.hdratio, config.min_samples, config.max_ci_width_hd);
}

Comparison compare_minrtt(const RouteWindowAgg& a, const RouteWindowAgg& b,
                          const ComparisonConfig& config) {
  const double z = confidence_z(config.alpha);
  return compare_medians(summarize_median(a.minrtt_digest(), z),
                         summarize_median(b.minrtt_digest(), z), config.min_samples,
                         config.max_ci_width_rtt);
}

Comparison compare_hdratio(const RouteWindowAgg& a, const RouteWindowAgg& b,
                           const ComparisonConfig& config) {
  const double z = confidence_z(config.alpha);
  return compare_medians(summarize_median(a.hdratio_digest(), z),
                         summarize_median(b.hdratio_digest(), z), config.min_samples,
                         config.max_ci_width_hd);
}

namespace {

Comparison compare_means(const Welford& a, const Welford& b, int min_samples,
                         double max_width, double alpha) {
  Comparison out;
  if (static_cast<int>(a.count()) < min_samples ||
      static_cast<int>(b.count()) < min_samples) {
    out.validity = Validity::kTooFewSamples;
    return out;
  }
  const double z = confidence_z(alpha);
  const double se = std::sqrt(a.variance() / static_cast<double>(a.count()) +
                              b.variance() / static_cast<double>(b.count()));
  out.diff.estimate = a.mean() - b.mean();
  out.diff.lower = out.diff.estimate - z * se;
  out.diff.upper = out.diff.estimate + z * se;
  out.validity = out.diff.width() <= max_width ? Validity::kValid : Validity::kCiTooWide;
  return out;
}

}  // namespace

Comparison compare_minrtt_mean(const RouteWindowAgg& a, const RouteWindowAgg& b,
                               const ComparisonConfig& config) {
  return compare_means(a.minrtt_mean(), b.minrtt_mean(), config.min_samples,
                       config.max_ci_width_rtt, config.alpha);
}

Comparison compare_hdratio_mean(const RouteWindowAgg& a, const RouteWindowAgg& b,
                                const ComparisonConfig& config) {
  return compare_means(a.hdratio_mean(), b.hdratio_mean(), config.min_samples,
                       config.max_ci_width_hd, config.alpha);
}

}  // namespace fbedge
