#include "stats/tdigest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>

#include "util/expect.h"

namespace fbedge {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Scale function k1: k(q) = (delta / 2pi) * asin(2q - 1). Limits centroid
// size so that centroids near q=0, q=0.5 extremes stay small, giving high
// accuracy at the tails and the median.
double k_scale(double q, double compression) {
  q = std::clamp(q, 0.0, 1.0);
  return compression / (2.0 * M_PI) * std::asin(2.0 * q - 1.0);
}

// Inverse of k_scale: the largest q with k(q) <= k. Returns 2.0 (never
// binding) once k exceeds k(1) = compression/4, mirroring k_scale's clamp.
// Evaluating the merge criterion as `q <= k_inverse(k_lo + 1)` costs one
// sin() per *emitted* centroid instead of one asin() per *input* centroid —
// the dominant transcendental saving in compress().
double k_inverse(double k, double compression) {
  const double arg = k * (2.0 * M_PI) / compression;
  if (arg >= M_PI / 2.0) return 2.0;
  return (std::sin(arg) + 1.0) / 2.0;
}

/// Sort order for centroids: by mean, then weight. The weight tie-break
/// keeps the merge order — and therefore the output centroids — identical
/// across toolchains even when many points share a mean (std::sort on
/// equal keys is otherwise implementation-defined).
struct CentroidLess {
  bool operator()(const TDigest::Centroid& a, const TDigest::Centroid& b) const {
    return a.mean < b.mean || (a.mean == b.mean && a.weight < b.weight);
  }
};
// A functor (not a function pointer) so std::sort inlines the comparison.
constexpr CentroidLess centroid_less{};

}  // namespace

TDigest::TDigest(double compression)
    : compression_(compression),
      buffer_limit_(static_cast<std::size_t>(compression * 4)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  FBEDGE_EXPECT(compression >= 20.0, "t-digest compression too small");
  // The buffer grows on demand: most digests live in per-window aggregates
  // that see a handful of points, and reserving the full merge buffer up
  // front (compression*4 entries) made constructing those aggregates the
  // dominant allocation cost. Sustained feeds reach capacity once and keep
  // it across compress() cycles.
}

void TDigest::merge(const TDigest& other) {
  other.compress();
  buffer_.insert(buffer_.end(), other.centroids_.begin(), other.centroids_.end());
  unmerged_weight_ += other.total_weight_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  compress();
}

void TDigest::compress() const {
  if (buffer_.empty()) return;
  // Only the buffer is unsorted; centroids_ is an already-sorted run.
  std::sort(buffer_.begin(), buffer_.end(), centroid_less);
  absorb_sorted_run(buffer_.data(), buffer_.size());
  buffer_.clear();
  unmerged_weight_ = 0;
}

void TDigest::absorb_sorted_run(const Centroid* run, std::size_t n) const {
  // Two-pointer merge of the two sorted runs into the persistent scratch;
  // centroids_ wins ties so older centroids keep their position.
  scratch_.clear();
  scratch_.reserve(centroids_.size() + n);
  std::size_t ci = 0;
  std::size_t ri = 0;
  while (ci < centroids_.size() && ri < n) {
    if (centroid_less(run[ri], centroids_[ci])) {
      scratch_.push_back(run[ri++]);
    } else {
      scratch_.push_back(centroids_[ci++]);
    }
  }
  scratch_.insert(scratch_.end(), centroids_.begin() + static_cast<std::ptrdiff_t>(ci),
                  centroids_.end());
  scratch_.insert(scratch_.end(), run + ri, run + n);

  double total = 0;
  for (const auto& c : scratch_) total += c.weight;

  centroids_.clear();
  centroids_.reserve(static_cast<std::size_t>(compression_ * 2));
  double so_far = 0;  // weight in fully-merged centroids
  Centroid cur = scratch_.front();
  // q up to which the open centroid may grow: k(q) - k(so_far/total) <= 1.
  double q_limit = k_inverse(k_scale(0.0, compression_) + 1.0, compression_);
  for (std::size_t i = 1; i < scratch_.size(); ++i) {
    const Centroid& next = scratch_[i];
    const double proposed_q = (so_far + cur.weight + next.weight) / total;
    if (std::min(proposed_q, 1.0) <= q_limit) {
      // Merge next into cur (weighted mean).
      const double w = cur.weight + next.weight;
      cur.mean += (next.mean - cur.mean) * next.weight / w;
      cur.weight = w;
    } else {
      so_far += cur.weight;
      centroids_.push_back(cur);
      q_limit = k_inverse(k_scale(so_far / total, compression_) + 1.0, compression_);
      cur = next;
    }
  }
  centroids_.push_back(cur);
  total_weight_ = total;
}

const std::vector<TDigest::Centroid>& TDigest::centroids() const {
  compress();
  return centroids_;
}

void TDigest::reset() {
  centroids_.clear();
  buffer_.clear();
  total_weight_ = 0;
  unmerged_weight_ = 0;
  count_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void TDigest::save(ByteWriter& w) const {
  compress();
  w.f64(compression_);
  w.u64(static_cast<std::uint64_t>(count_));
  w.f64(total_weight_);
  w.f64(min_);
  w.f64(max_);
  w.u64(static_cast<std::uint64_t>(centroids_.size()));
  for (const Centroid& c : centroids_) {
    w.f64(c.mean);
    w.f64(c.weight);
  }
}

std::size_t TDigest::saved_size() const {
  compress();
  // Header: compression, count, total_weight, min, max, centroid count.
  return 6 * 8 + 16 * centroids_.size();
}

bool TDigest::load(ByteReader& r) {
  reset();
  const double compression = r.f64();
  const std::uint64_t count = r.u64();
  const double total_weight = r.f64();
  const double min = r.f64();
  const double max = r.f64();
  const std::uint64_t n = r.u64();
  // Structural validation: a centroid is 16 bytes, so a count the stream
  // cannot possibly hold marks a corrupt length field (prevents a huge
  // reserve from a few flipped bits).
  if (!r.ok() || !(compression >= 20.0) || n > r.remaining() / 16) {
    r.fail();
    return false;
  }
  compression_ = compression;
  buffer_limit_ = static_cast<std::size_t>(compression * 4);
  // The centroid array in one bounds-checked copy: on the wire each
  // centroid is its mean then its weight as little-endian f64s, which is
  // Centroid's own layout on the little-endian hosts the format targets.
  static_assert(std::endian::native == std::endian::little &&
                    sizeof(Centroid) == 16 && offsetof(Centroid, mean) == 0 &&
                    offsetof(Centroid, weight) == 8 &&
                    std::is_trivially_copyable_v<Centroid>,
                "load() copies wire centroids straight into centroids_");
  centroids_.resize(static_cast<std::size_t>(n));
  if (!r.bytes(centroids_.data(), centroids_.size() * sizeof(Centroid))) {
    reset();
    return false;
  }
  count_ = static_cast<std::size_t>(count);
  total_weight_ = total_weight;
  min_ = min;
  max_ = max;
  return true;
}

double TDigest::quantile(double q) const {
  double value = 0;
  quantiles({&q, 1}, {&value, 1});
  return value;
}

void TDigest::quantiles(std::span<const double> qs, std::span<double> out) const {
  FBEDGE_EXPECT(out.size() == qs.size(), "one output per quantile");
  compress();
  if (centroids_.size() <= 1) {
    std::fill(out.begin(), out.end(), centroids_.empty() ? kNaN : centroids_[0].mean);
    return;
  }
  // Walk centroids, interpolating between midpoints (standard t-digest
  // quantile estimation: each centroid's weight is split half before /
  // half after its mean). A target stops at the first centroid i with
  // target < mid_i. Every centroid it passed has mid <= target, so for a
  // target at least as large, that centroid fails the test too: the walk
  // resumes at i with the same `cum`, summed in the same order, and gives
  // what a walk from the front gives.
  std::size_t i = 0;
  double cum = 0;
  double prev_target = kNaN;
  for (std::size_t k = 0; k < qs.size(); ++k) {
    const double target = std::clamp(qs[k], 0.0, 1.0) * total_weight_;
    if (!(target >= prev_target)) {
      i = 0;
      cum = 0;
    }
    prev_target = target;
    out[k] = walk_to(target, i, cum);
  }
}

double TDigest::walk_to(double target, std::size_t& i, double& cum) const {
  for (; i < centroids_.size(); ++i) {
    const double mid = cum + centroids_[i].weight / 2.0;
    if (target < mid) {
      if (i == 0) {
        // Interpolate between min and first centroid mean.
        const double lo_w = centroids_[0].weight / 2.0;
        if (lo_w <= 0) return centroids_[0].mean;
        const double frac = target / lo_w;
        return min_ + frac * (centroids_[0].mean - min_);
      }
      const double prev_mid = cum - centroids_[i - 1].weight / 2.0;
      const double span = mid - prev_mid;
      const double frac = span > 0 ? (target - prev_mid) / span : 0.5;
      return centroids_[i - 1].mean + frac * (centroids_[i].mean - centroids_[i - 1].mean);
    }
    cum += centroids_[i].weight;
  }
  // Beyond the last midpoint: interpolate toward max.
  const auto& last = centroids_.back();
  const double last_mid = total_weight_ - last.weight / 2.0;
  const double span = total_weight_ - last_mid;
  const double frac = span > 0 ? (target - last_mid) / span : 1.0;
  return last.mean + std::clamp(frac, 0.0, 1.0) * (max_ - last.mean);
}

double TDigest::cdf(double x) const {
  compress();
  if (centroids_.empty()) return kNaN;
  if (x < min_) return 0.0;
  if (x >= max_) return 1.0;
  if (centroids_.size() == 1) {
    // Interpolate within [min, max].
    const double span = max_ - min_;
    return span > 0 ? (x - min_) / span : 0.5;
  }

  double cum = 0;
  double prev_mean = min_;
  double prev_mid = 0;
  for (const auto& c : centroids_) {
    const double mid = cum + c.weight / 2.0;
    if (x < c.mean) {
      const double span = c.mean - prev_mean;
      const double frac = span > 0 ? (x - prev_mean) / span : 0.5;
      return (prev_mid + frac * (mid - prev_mid)) / total_weight_;
    }
    cum += c.weight;
    prev_mean = c.mean;
    prev_mid = mid;
  }
  const double span = max_ - prev_mean;
  const double frac = span > 0 ? (x - prev_mean) / span : 1.0;
  return (prev_mid + frac * (total_weight_ - prev_mid)) / total_weight_;
}

}  // namespace fbedge
