// Merging t-digest (Dunning & Ertl, "Computing Extremely Accurate Quantiles
// Using t-Digests", arXiv:1902.04023).
//
// The paper (footnote 11) notes that production traffic-engineering systems
// compute per-aggregation percentiles and confidence intervals with
// t-digests in streaming analytics frameworks. This is that data structure:
// a mergeable, bounded-size sketch with very low error near the tails and
// near the median.
//
// Hot-path design (see DESIGN.md "performance notes"): `centroids_` is kept
// sorted between compressions, so compress() only sorts the small unmerged
// buffer and two-pointer-merges it with the existing run into a persistent
// scratch vector — no allocation and no O(n log n) work over data that is
// already sorted. Ties sort by (mean, weight) so the output is identical
// across toolchains regardless of std::sort's handling of equal keys.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "util/binio.h"
#include "util/expect.h"

namespace fbedge {

/// A mergeable quantile sketch.
///
/// Usage:
///   TDigest d(100);
///   d.add(value, weight);
///   double p50 = d.quantile(0.5);
///
/// add() buffers points; buffers are merged into centroids automatically
/// when full, or explicitly via compress(). All read accessors compress
/// first, so interleaved add/quantile is safe.
class TDigest {
 public:
  struct Centroid {
    double mean{0};
    double weight{0};
  };

  /// `compression` bounds the number of retained centroids (~2x compression)
  /// and controls accuracy; 100 gives ~0.1-1% relative rank error.
  explicit TDigest(double compression = 100.0);

  /// Adds a point with the given weight (weight > 0). Inline: every session
  /// feeds several digests (per-route MinRTT/HDratio cells), so on the
  /// aggregation hot path the common buffered case should compile down to a
  /// push + bookkeeping with no call; the rare buffer-full case takes the
  /// out-of-line compress().
  void add(double value, double weight = 1.0) {
    FBEDGE_EXPECT(weight > 0, "t-digest weight must be positive");
    FBEDGE_EXPECT(std::isfinite(value), "t-digest value must be finite");
    buffer_.push_back({value, weight});
    unmerged_weight_ += weight;
    ++count_;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    if (buffer_.size() >= buffer_limit_) compress();
  }

  /// Merges another digest into this one.
  void merge(const TDigest& other);

  /// Returns the estimated value at quantile q in [0, 1].
  /// Returns NaN for an empty digest. The batch of one: quantiles({q}).
  double quantile(double q) const;

  /// out[k] = quantile(qs[k]) for every k, bitwise, in one walk of the
  /// centroids when `qs` is ascending: each target resumes where the one
  /// before it stopped. A target below its predecessor (or NaN) walks
  /// from the front again, so any order gives the same answers.
  /// `out` must hold qs.size() values.
  void quantiles(std::span<const double> qs, std::span<double> out) const;

  /// Returns the estimated fraction of weight <= x. Returns NaN if empty.
  double cdf(double x) const;

  /// Total weight added so far.
  double total_weight() const { return total_weight_ + unmerged_weight_; }

  /// Number of points added (unweighted count of add() calls).
  std::size_t count() const { return count_; }

  bool empty() const { return total_weight() <= 0; }

  double min() const { return min_; }
  double max() const { return max_; }

  /// Flushes the input buffer into the centroid set.
  void compress() const;

  /// Read-only view of the merged centroids (compresses first).
  const std::vector<Centroid>& centroids() const;

  /// Returns the digest to its empty post-construction state while keeping
  /// every internal buffer's capacity — the reuse primitive behind the
  /// per-worker aggregation pools (a reset digest produces bit-identical
  /// results to a freshly constructed one with the same compression).
  void reset();

  /// Appends the compressed state (compression, count, weight, min/max,
  /// centroid list) to `w` as raw little-endian bit patterns. save() then
  /// load() reconstructs a digest whose every subsequent query is bitwise
  /// identical to this one's — compress() runs first, and a compressed
  /// digest's behavior is a pure function of the serialized fields.
  void save(ByteWriter& w) const;

  /// Exact number of bytes the next save() will append: the fixed header
  /// plus 16 per centroid. Compresses first (save() does the same), so
  /// calling saved_size() then save() adds no extra work and the two always
  /// agree — callers use it to reserve output buffers up front.
  std::size_t saved_size() const;

  /// Replaces this digest's state from `r` (keeping buffer capacity, so
  /// pooled digests deserialize without allocating once warm). Returns
  /// false — leaving the digest reset-empty — on truncated input or
  /// structurally invalid fields; never crashes on corrupt bytes.
  bool load(ByteReader& r);

 private:
  /// Merges the sorted `run` with the sorted `centroids_` and rebuilds the
  /// centroid set under the k1 size limit. `run` must not alias members.
  void absorb_sorted_run(const Centroid* run, std::size_t n) const;

  /// The quantiles() walk for one target: advances centroid index `i` and
  /// the weight `cum` before it until target < mid_i, and returns the
  /// interpolated value there (or toward max_ past the last midpoint).
  double walk_to(double target, std::size_t& i, double& cum) const;

  double compression_;
  /// Buffered points before an automatic compress; cached from the ctor so
  /// add() does not recompute the float->size_t conversion per call.
  std::size_t buffer_limit_;
  // Logically-const caching: compress() reshapes internal representation
  // without changing the distribution represented.
  mutable std::vector<Centroid> centroids_;
  mutable std::vector<Centroid> buffer_;
  /// Persistent merge scratch: compress() writes the combined sorted run
  /// here, then rebuilds centroids_ from it. Reused across compressions so
  /// the steady state allocates nothing.
  mutable std::vector<Centroid> scratch_;
  mutable double total_weight_{0};
  mutable double unmerged_weight_{0};
  std::size_t count_{0};
  double min_;
  double max_;
};

}  // namespace fbedge
