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
// buffer and two-pointer-merges it with the existing run into a merge
// scratch vector — no allocation and no O(n log n) work over data that is
// already sorted. The scratch is one per thread, not one per digest: a
// digest needs it only inside compress(), and one worker's series holds
// thousands of digests. Ties sort by (mean, weight) so the output is
// identical across toolchains regardless of std::sort's handling of equal
// keys.
//
// Quantile reads go through TDigestView: a compressed digest's header
// fields and its centroid array as 16-byte little-endian (mean, weight)
// pairs, either a TDigest's own centroids (TDigest::view()) or a saved
// digest's bytes where they lie (TDigestView::parse). The quantile walk is
// the view's, so a digest and its saved bytes answer through one body, and
// a reader that only needs quantiles walks a blob without copying a
// centroid.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/binio.h"
#include "util/expect.h"

namespace fbedge {

/// A read-only compressed digest: count, total weight, min, max and the
/// centroid array, borrowed, not owned. Valid while the bytes it views
/// are: the reader's buffer for parse(), or the TDigest for
/// TDigest::view() until that digest is next changed.
class TDigestView {
 public:
  /// An empty digest's view: every quantile is NaN.
  TDigestView() = default;

  /// Parses the digest TDigest::save() wrote at `r`'s position and
  /// advances past it, borrowing its centroid array in place. This is the
  /// one validation of a saved digest — TDigest::load() parses through it —
  /// so it accepts exactly what load() accepts. Returns false, latching
  /// `r`'s failure, on truncated or structurally invalid input.
  bool parse(ByteReader& r);

  std::uint64_t count() const { return count_; }
  double total_weight() const { return total_weight_; }
  double min() const { return min_; }
  double max() const { return max_; }
  /// Number of centroids.
  std::size_t size() const { return size_; }
  /// Centroid i's mean and weight, loaded from its 16 bytes at any
  /// alignment.
  double mean(std::size_t i) const { return field(i, 0); }
  double weight(std::size_t i) const { return field(i, 8); }

  /// Returns the estimated value at quantile q in [0, 1]; NaN for an
  /// empty digest. The batch of one: quantiles({q}).
  double quantile(double q) const;

  /// out[k] = quantile(qs[k]) for every k, bitwise, in one walk of the
  /// centroids when `qs` is ascending: each target resumes where the one
  /// before it stopped. A target below its predecessor (or NaN) walks
  /// from the front again, so any order gives the same answers.
  /// `out` must hold qs.size() values.
  void quantiles(std::span<const double> qs, std::span<double> out) const;

 private:
  friend class TDigest;

  TDigestView(double compression, std::uint64_t count, double total_weight,
              double min, double max, std::size_t size,
              const unsigned char* centroids)
      : compression_(compression),
        count_(count),
        total_weight_(total_weight),
        min_(min),
        max_(max),
        size_(size),
        centroids_(centroids) {}

  double field(std::size_t i, std::size_t offset) const {
    double v;
    std::memcpy(&v, centroids_ + 16 * i + offset, sizeof v);
    return v;
  }

  /// The quantiles() walk for one target: advances centroid index `i` and
  /// the weight `cum` before it until target < mid_i, and returns the
  /// interpolated value there (or toward max_ past the last midpoint).
  double walk_to(double target, std::size_t& i, double& cum) const;

  double compression_{0};
  std::uint64_t count_{0};
  double total_weight_{0};
  double min_{0};
  double max_{0};
  std::size_t size_{0};
  const unsigned char* centroids_{nullptr};
};

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
  /// Returns NaN for an empty digest. view().quantile(q).
  double quantile(double q) const { return view().quantile(q); }

  /// view().quantiles(qs, out): one walk for an ascending batch.
  void quantiles(std::span<const double> qs, std::span<double> out) const {
    view().quantiles(qs, out);
  }

  /// The compressed digest as a view over its own centroids (compresses
  /// first). Valid until the next add, merge, load, seal or reset.
  TDigestView view() const;

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

  /// For a digest that gets no more adds: compresses, then gives back the
  /// add buffer and the centroid capacity beyond the centroids held. Every
  /// later query and save() compresses first anyway, and that compress now
  /// finds nothing to do, so each answers bit for bit what it would have
  /// without the seal. More adds after a seal still work, but compress at
  /// different points than on an unsealed twin, so their bits can differ.
  void seal();

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
  /// pooled digests deserialize without allocating once warm): parses it
  /// with TDigestView::parse, then load(view). Returns false — leaving the
  /// digest reset-empty — on truncated input or structurally invalid
  /// fields; never crashes on corrupt bytes.
  bool load(ByteReader& r);

  /// Replaces this digest's state with a copy of `saved` (a view of
  /// another digest or of saved bytes, never of this digest).
  void load(const TDigestView& saved);

 private:
  /// Merges the sorted `run` with the sorted `centroids_` and rebuilds the
  /// centroid set under the k1 size limit. `run` must not alias members.
  void absorb_sorted_run(const Centroid* run, std::size_t n) const;

  double compression_;
  /// Buffered points before an automatic compress; cached from the ctor so
  /// add() does not recompute the float->size_t conversion per call.
  std::size_t buffer_limit_;
  // Logically-const caching: compress() reshapes internal representation
  // without changing the distribution represented.
  mutable std::vector<Centroid> centroids_;
  mutable std::vector<Centroid> buffer_;
  mutable double total_weight_{0};
  mutable double unmerged_weight_{0};
  std::size_t count_{0};
  double min_;
  double max_;
};

}  // namespace fbedge
