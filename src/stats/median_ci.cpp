#include "stats/median_ci.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.h"

namespace fbedge {

double normal_quantile(double p) {
  FBEDGE_EXPECT(p > 0.0 && p < 1.0, "normal_quantile domain");
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= 1 - p_low) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

double confidence_z(double alpha) { return normal_quantile(0.5 + alpha / 2.0); }

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Fractional "ranks" (0-based positions into the sorted sample) bracketing
// the median at confidence z, from the binomial/normal approximation.
struct MedianBracket {
  double lo_pos;  // 0-based position, may be fractional
  double hi_pos;
};

MedianBracket median_bracket(double n, double z) {
  const double half_width = z * std::sqrt(n) / 2.0;
  double lo = n / 2.0 - half_width;   // 1-based fractional rank
  double hi = n / 2.0 + half_width + 1.0;
  lo = std::max(1.0, lo);
  hi = std::min(n, hi);
  return {lo - 1.0, hi - 1.0};  // convert to 0-based
}

// Price-Bonett: the standard error of each median is recovered from its
// order-statistic interval, se = width / (2 z).
ConfidenceInterval combine_difference(const ConfidenceInterval& ca,
                                      const ConfidenceInterval& cb, double z) {
  const double se_a = ca.width() / (2.0 * z);
  const double se_b = cb.width() / (2.0 * z);
  const double se = std::sqrt(se_a * se_a + se_b * se_b);
  ConfidenceInterval out;
  out.estimate = ca.estimate - cb.estimate;
  out.lower = out.estimate - z * se;
  out.upper = out.estimate + z * se;
  return out;
}

// The interval needs the sample values at three fractional positions
// (median, bracket low, bracket high), i.e. at most six order statistics.
// Rather than sorting the whole scratch buffer, each needed rank is placed
// with nth_element restricted to the segment between the nearest
// already-placed ranks (nth_element leaves the buffer partitioned around
// every rank it has placed). O(n) total instead of O(n log n), and an
// exact order statistic is the same double either way, so results match
// the former full sort bit-for-bit.
class OrderStatSelector {
 public:
  explicit OrderStatSelector(std::vector<double>& scratch) : v_(scratch) {}

  // Interpolated value at fractional 0-based position `pos` (the formula of
  // quantile_sorted / the former value_at_pos, verbatim).
  double at(double pos) {
    pos = std::clamp(pos, 0.0, static_cast<double>(v_.size() - 1));
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double lo_v = rank(lo);
    const double hi_v = rank(hi);
    return lo_v + frac * (hi_v - lo_v);
  }

 private:
  double rank(std::size_t k) {
    std::size_t from = 0, to = v_.size();
    for (const std::size_t p : placed_) {
      if (p == k) return v_[k];
      if (p < k) {
        from = std::max(from, p + 1);
      } else {
        to = std::min(to, p);
      }
    }
    std::nth_element(v_.begin() + static_cast<std::ptrdiff_t>(from),
                     v_.begin() + static_cast<std::ptrdiff_t>(k),
                     v_.begin() + static_cast<std::ptrdiff_t>(to));
    placed_.push_back(k);
    return v_[k];
  }

  std::vector<double>& v_;
  std::vector<std::size_t> placed_;
};

ConfidenceInterval ci_from_scratch(std::vector<double>& scratch, double z) {
  FBEDGE_EXPECT(scratch.size() >= 5, "median CI needs >= 5 samples");
  const auto bracket = median_bracket(static_cast<double>(scratch.size()), z);
  const double median_pos = 0.5 * static_cast<double>(scratch.size() - 1);
  OrderStatSelector sel(scratch);
  ConfidenceInterval ci;
  ci.estimate = sel.at(median_pos);
  ci.lower = sel.at(bracket.lo_pos);
  ci.upper = sel.at(bracket.hi_pos);
  return ci;
}

}  // namespace

ConfidenceInterval median_confidence_interval(std::span<const double> values,
                                              std::vector<double>& scratch,
                                              double alpha) {
  scratch.assign(values.begin(), values.end());
  return ci_from_scratch(scratch, confidence_z(alpha));
}

ConfidenceInterval median_confidence_interval(const TDigest& digest, double alpha) {
  FBEDGE_EXPECT(digest.count() >= 5, "median CI needs >= 5 samples");
  return summarize_median(digest, confidence_z(alpha)).ci;
}

ConfidenceInterval median_difference_interval(std::span<const double> a,
                                              std::span<const double> b,
                                              std::vector<double>& scratch,
                                              double alpha) {
  const auto ca = median_confidence_interval(a, scratch, alpha);
  const auto cb = median_confidence_interval(b, scratch, alpha);
  return combine_difference(ca, cb, confidence_z(alpha));
}

MedianSummary::MedianSummary(const TDigest& digest, double alpha)
    : MedianSummary(summarize_median(digest, confidence_z(alpha))) {}

MedianSummary summarize_median(const TDigest& digest, double z) {
  MedianSummary s;
  s.count = digest.count();
  s.z = z;
  if (s.count < 5) {
    s.ci = {digest.quantile(0.5), kNaN, kNaN};
    return s;
  }
  // The bracket's positions as quantiles of the sketch: lo < 0.5 < hi.
  const double n = static_cast<double>(s.count);
  const auto bracket = median_bracket(n, z);
  const double qs[3] = {bracket.lo_pos / (n - 1.0), 0.5, bracket.hi_pos / (n - 1.0)};
  double at[3];
  digest.quantiles(qs, at);
  s.ci = {at[1], at[0], at[2]};
  return s;
}

ConfidenceInterval median_difference_interval(const MedianSummary& a,
                                              const MedianSummary& b) {
  FBEDGE_EXPECT(a.count >= 5 && b.count >= 5, "median CI needs >= 5 samples");
  FBEDGE_EXPECT(a.z == b.z, "median summaries taken at different confidence");
  return combine_difference(a.ci, b.ci, a.z);
}

}  // namespace fbedge
