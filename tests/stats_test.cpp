// Tests for the statistics substrate: t-digest, exact quantiles, order-
// statistic median CIs, and the Price-Bonett difference-of-medians CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "stats/cdf.h"
#include "stats/median_ci.h"
#include "stats/quantiles.h"
#include "stats/tdigest.h"
#include "stats/welford.h"
#include "util/binio.h"
#include "util/rng.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// Exact quantiles.
// ---------------------------------------------------------------------------

TEST(Quantiles, SmallSamples) {
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 3.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
}

TEST(Quantiles, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0, 20.0}, 0.75), 15.0);
}

// ---------------------------------------------------------------------------
// Welford.
// ---------------------------------------------------------------------------

TEST(Welford, MatchesClosedForm) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Welford, MergeMatchesSinglePass) {
  Rng rng(61);
  Welford parts[4], combined;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.lognormal(1.0, 0.7);
    parts[i % 4].add(v);
    combined.add(v);
  }
  Welford merged;
  for (const auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.count(), combined.count());
  EXPECT_NEAR(merged.mean(), combined.mean(), 1e-9 * std::abs(combined.mean()));
  EXPECT_NEAR(merged.variance(), combined.variance(),
              1e-9 * combined.variance());
}

TEST(Welford, MergeWithEmptySides) {
  Welford filled;
  for (double x : {1.0, 2.0, 3.0}) filled.add(x);

  Welford lhs_empty;
  lhs_empty.merge(filled);
  EXPECT_EQ(lhs_empty.count(), 3u);
  EXPECT_DOUBLE_EQ(lhs_empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(lhs_empty.variance(), 1.0);

  Welford rhs_empty;
  filled.merge(rhs_empty);
  EXPECT_EQ(filled.count(), 3u);
  EXPECT_DOUBLE_EQ(filled.mean(), 2.0);
  EXPECT_DOUBLE_EQ(filled.variance(), 1.0);
}

// ---------------------------------------------------------------------------
// t-digest.
// ---------------------------------------------------------------------------

struct DigestCase {
  const char* name;
  int n;
  int dist;  // 0 uniform, 1 lognormal, 2 bimodal (HDratio-like)
};

class TDigestAccuracy : public ::testing::TestWithParam<DigestCase> {};

TEST_P(TDigestAccuracy, QuantilesCloseToExact) {
  const auto& p = GetParam();
  Rng rng(1234);
  TDigest digest(100);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    double v = 0;
    switch (p.dist) {
      case 0: v = rng.uniform(0, 100); break;
      case 1: v = rng.lognormal(3.0, 1.0); break;
      default: v = rng.bernoulli(0.6) ? 1.0 : rng.uniform(0.0, 0.2); break;
    }
    digest.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = quantile_sorted(values, q);
    const double approx = digest.quantile(q);
    // Rank error: q must fall within 2% of the approximate value's rank
    // *range* (a range because distributions with atoms — e.g. the
    // HDratio-like bimodal mass at 1.0 — give one value a wide rank span).
    const double n = static_cast<double>(values.size());
    const auto rank_lo = static_cast<double>(
                             std::lower_bound(values.begin(), values.end(), approx) -
                             values.begin()) /
                         n;
    const auto rank_hi = static_cast<double>(
                             std::upper_bound(values.begin(), values.end(), approx) -
                             values.begin()) /
                         n;
    EXPECT_GE(q, rank_lo - 0.02) << p.name << " q=" << q << " exact=" << exact
                                 << " approx=" << approx;
    EXPECT_LE(q, rank_hi + 0.02) << p.name << " q=" << q << " exact=" << exact
                                 << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, TDigestAccuracy,
                         ::testing::Values(DigestCase{"uniform_1k", 1000, 0},
                                           DigestCase{"uniform_100k", 100000, 0},
                                           DigestCase{"lognormal_10k", 10000, 1},
                                           DigestCase{"bimodal_10k", 10000, 2}));

TEST(TDigest, EmptyReturnsNaN) {
  TDigest d;
  EXPECT_TRUE(std::isnan(d.quantile(0.5)));
  EXPECT_TRUE(std::isnan(d.cdf(1.0)));
  EXPECT_TRUE(d.empty());
}

TEST(TDigest, SingleValue) {
  TDigest d;
  d.add(42.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 42.0);
}

TEST(TDigest, MinMaxPreserved) {
  Rng rng(7);
  TDigest d;
  double lo = 1e300, hi = -1e300;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.normal(0, 10);
    d.add(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_DOUBLE_EQ(d.min(), lo);
  EXPECT_DOUBLE_EQ(d.max(), hi);
  EXPECT_LE(d.quantile(1.0), hi + 1e-12);
  EXPECT_GE(d.quantile(0.0), lo - 1e-12);
}

TEST(TDigest, MergeEquivalentToCombinedStream) {
  Rng rng(99);
  TDigest a(100), b(100), combined(100);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.lognormal(0, 1);
    (i % 2 == 0 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(a.quantile(q), combined.quantile(q),
                0.05 * std::max(1.0, combined.quantile(q)));
  }
  EXPECT_DOUBLE_EQ(a.total_weight(), combined.total_weight());
}

TEST(TDigest, MergeOfManyPartsWithinRankError) {
  // Shard-merge shape used by the runtime reducer: K per-shard digests
  // folded into one must stay within the sketch's rank error of the exact
  // quantiles of the combined stream.
  Rng rng(101);
  std::vector<TDigest> parts(8, TDigest(100));
  std::vector<double> values;
  for (int i = 0; i < 40000; ++i) {
    const double v = rng.lognormal(1.5, 0.8);
    parts[static_cast<std::size_t>(i % 8)].add(v);
    values.push_back(v);
  }
  TDigest merged(100);
  for (const auto& p : parts) merged.merge(p);
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  EXPECT_DOUBLE_EQ(merged.total_weight(), n);
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double approx = merged.quantile(q);
    const double rank = static_cast<double>(
                            std::lower_bound(values.begin(), values.end(), approx) -
                            values.begin()) /
                        n;
    EXPECT_NEAR(rank, q, 0.02) << "q=" << q;
  }
}

TEST(TDigest, MergeEmptyCases) {
  TDigest filled, empty;
  for (int i = 0; i < 100; ++i) filled.add(i);
  const double median = filled.quantile(0.5);
  filled.merge(empty);  // no-op
  EXPECT_DOUBLE_EQ(filled.quantile(0.5), median);
  EXPECT_DOUBLE_EQ(filled.total_weight(), 100.0);
  empty.merge(filled);  // adopt
  EXPECT_DOUBLE_EQ(empty.total_weight(), 100.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), median);
}

TEST(TDigest, WeightedMedianShifts) {
  TDigest d;
  d.add(0.0, 1.0);
  d.add(10.0, 9.0);
  EXPECT_GT(d.quantile(0.5), 5.0);
}

TEST(TDigest, CdfIsMonotoneAndInverseOfQuantile) {
  Rng rng(5);
  TDigest d;
  for (int i = 0; i < 10000; ++i) d.add(rng.uniform(0, 1000));
  double prev = -1;
  for (double x = 0; x <= 1000; x += 50) {
    const double c = d.cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
  for (double q : {0.2, 0.5, 0.8}) {
    EXPECT_NEAR(d.cdf(d.quantile(q)), q, 0.03);
  }
}

TEST(TDigest, BoundedSize) {
  Rng rng(3);
  TDigest d(100);
  for (int i = 0; i < 200000; ++i) d.add(rng.lognormal(0, 2));
  EXPECT_LE(d.centroids().size(), 220u);  // ~2x compression bound
}

TEST(TDigest, TieBreakIsInsertionOrderIndependent) {
  // Equal-mean points with distinct weights must produce the same centroid
  // set no matter the insertion order: compress() sorts by (mean, weight),
  // so std::sort's handling of equal keys cannot leak into the result.
  // Total inserts stay below the auto-compress threshold (compression * 4)
  // so each digest sees exactly one compress over the full multiset.
  std::vector<TDigest::Centroid> points;
  for (int w = 1; w <= 10; ++w) points.push_back({5.0, static_cast<double>(w)});
  for (int w = 1; w <= 10; ++w) points.push_back({-2.0, static_cast<double>(w)});
  for (int i = 0; i < 50; ++i) points.push_back({0.1 * i, 1.0});

  TDigest forward(100), reverse(100), shuffled(100);
  for (const auto& p : points) forward.add(p.mean, p.weight);
  for (auto it = points.rbegin(); it != points.rend(); ++it) {
    reverse.add(it->mean, it->weight);
  }
  Rng rng(17);
  std::vector<TDigest::Centroid> perm = points;
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1],
              perm[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1))]);
  }
  for (const auto& p : perm) shuffled.add(p.mean, p.weight);

  const auto& f = forward.centroids();
  const auto& r = reverse.centroids();
  const auto& s = shuffled.centroids();
  ASSERT_EQ(f.size(), r.size());
  ASSERT_EQ(f.size(), s.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i].mean, r[i].mean) << "i=" << i;
    EXPECT_EQ(f[i].weight, r[i].weight) << "i=" << i;
    EXPECT_EQ(f[i].mean, s[i].mean) << "i=" << i;
    EXPECT_EQ(f[i].weight, s[i].weight) << "i=" << i;
  }
}

namespace reference {

// The pre-optimization TDigest::compress(): concatenate retained centroids
// with the buffer, full std::sort, and an asin-per-candidate k1 merge
// criterion. Kept here as an executable specification so the sorted-run /
// sin-inversion production path can be checked for bitwise equivalence.
// (The only intentional difference from the historical code is the
// (mean, weight) sort tie-break; the test feeds continuous values, so no
// ties occur and the comparator change is unobservable.)
class Digest {
 public:
  explicit Digest(double compression) : compression_(compression) {}

  void add(double value, double weight = 1.0) {
    buffer_.push_back({value, weight});
    if (buffer_.size() >= static_cast<std::size_t>(compression_ * 4)) compress();
  }

  void compress() {
    if (buffer_.empty()) return;
    std::vector<TDigest::Centroid> all;
    all.reserve(centroids_.size() + buffer_.size());
    all.insert(all.end(), centroids_.begin(), centroids_.end());
    all.insert(all.end(), buffer_.begin(), buffer_.end());
    buffer_.clear();
    std::sort(all.begin(), all.end(),
              [](const TDigest::Centroid& a, const TDigest::Centroid& b) {
                return a.mean < b.mean ||
                       (a.mean == b.mean && a.weight < b.weight);
              });

    double total = 0;
    for (const auto& c : all) total += c.weight;

    std::vector<TDigest::Centroid> merged;
    double so_far = 0;
    TDigest::Centroid cur = all.front();
    double k_lo = k_scale(0.0);
    for (std::size_t i = 1; i < all.size(); ++i) {
      const TDigest::Centroid& next = all[i];
      const double proposed_q = (so_far + cur.weight + next.weight) / total;
      if (k_scale(proposed_q) - k_lo <= 1.0) {
        const double w = cur.weight + next.weight;
        cur.mean += (next.mean - cur.mean) * next.weight / w;
        cur.weight = w;
      } else {
        so_far += cur.weight;
        merged.push_back(cur);
        k_lo = k_scale(so_far / total);
        cur = next;
      }
    }
    merged.push_back(cur);
    centroids_ = std::move(merged);
  }

  const std::vector<TDigest::Centroid>& centroids() {
    compress();
    return centroids_;
  }

 private:
  double k_scale(double q) const {
    q = std::clamp(q, 0.0, 1.0);
    return compression_ / (2.0 * M_PI) * std::asin(2.0 * q - 1.0);
  }

  double compression_;
  std::vector<TDigest::Centroid> centroids_;
  std::vector<TDigest::Centroid> buffer_;
};

}  // namespace reference

TEST(TDigest, SortedRunCompressMatchesReferenceBitwise) {
  // The production compress (incremental sorted-run merge + sin-inverted
  // k limit) must produce exactly the centroids the historical
  // sort-everything / asin-per-candidate implementation produced for the
  // same insertion sequence. Continuous draws, weight-1 adds: both the
  // FP-exactness preconditions (no ties; integer weight sums) hold.
  Rng rng(20260805);
  TDigest fast(100);
  reference::Digest ref(100);
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.lognormal(-2.0, 1.3);
    fast.add(v);
    ref.add(v);
  }
  const auto& got = fast.centroids();
  const auto& want = ref.centroids();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mean, want[i].mean) << "centroid " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << "centroid " << i;
  }
}

TEST(TDigest, AdversarialTiesPreserveQuantileErrorBounds) {
  // Worst case for the (mean, weight) comparator: a tiny discrete support
  // (16 values) with small integer weights, so nearly every point collides
  // with thousands of others on mean and many on the full (mean, weight)
  // key. 60k adds drive ~150 compress() cycles, exercising the sorted-run
  // tie path ("centroids_ wins ties") over and over. The sketch must still
  // honour its rank-error bound — for a tied distribution the exact rank of
  // a value is an *interval*, so assert q lands within 0.02 of it.
  Rng rng(4242);
  TDigest d(100);
  std::array<double, 16> weight_at{};
  double total = 0;
  for (int i = 0; i < 60000; ++i) {
    const int v = rng.uniform_int(0, 15);
    const double w = static_cast<double>(rng.uniform_int(1, 4));
    d.add(static_cast<double>(v), w);
    weight_at[static_cast<std::size_t>(v)] += w;
    total += w;
  }
  // Integer weights: the sketch's running sum must be exact, not approximate.
  EXPECT_DOUBLE_EQ(d.total_weight(), total);

  double prev = -std::numeric_limits<double>::infinity();
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = d.quantile(q);
    EXPECT_GE(x, prev) << "quantile must stay monotone under ties, q=" << q;
    prev = x;
    // The estimate interpolates between atoms; snap to the nearest atom and
    // require q inside that atom's exact rank interval (plus the bound).
    const int atom = std::clamp(static_cast<int>(std::lround(x)), 0, 15);
    double below = 0;
    double at_or_below = 0;
    for (int v = 0; v < 16; ++v) {
      if (v < atom) below += weight_at[static_cast<std::size_t>(v)];
      if (v <= atom) at_or_below += weight_at[static_cast<std::size_t>(v)];
    }
    EXPECT_GE(q, below / total - 0.02) << "q=" << q << " x=" << x;
    EXPECT_LE(q, at_or_below / total + 0.02) << "q=" << q << " x=" << x;
  }
  // Output centroids stay sorted by mean even when inputs were all ties.
  const auto& cs = d.centroids();
  for (std::size_t i = 1; i < cs.size(); ++i) {
    EXPECT_LE(cs[i - 1].mean, cs[i].mean) << "i=" << i;
  }
}

TEST(TDigest, MergeIsDeterministicUnderAdversarialTies) {
  // Tie-heavy merges must be exactly reproducible: the (mean, weight)
  // comparator leaves std::sort no freedom on equal keys, so replaying the
  // same merge sequence on fresh digests yields bitwise-identical centroids
  // — this is what makes shard reduction byte-stable for any --threads.
  // (Merge *order*, by contrast, is only guaranteed at the rank-error
  // level, see ManyPartMergeOrderKeepsRankErrorUnderTies: each merge
  // recompresses against a new total, so intermediate groupings differ.)
  const auto build = [](std::uint64_t seed) {
    TDigest p(100);
    Rng rng(seed);
    for (int i = 0; i < 5000; ++i) {
      p.add(static_cast<double>(rng.uniform_int(0, 7)),
            static_cast<double>(rng.uniform_int(1, 3)));
    }
    return p;
  };
  const auto expect_same = [](const TDigest& a, const TDigest& b) {
    const auto& ca = a.centroids();
    const auto& cb = b.centroids();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].mean, cb[i].mean) << "i=" << i;
      EXPECT_EQ(ca[i].weight, cb[i].weight) << "i=" << i;
    }
    EXPECT_DOUBLE_EQ(a.total_weight(), b.total_weight());
  };

  const TDigest a = build(900);
  const TDigest b = build(901);
  TDigest once(100), again(100);
  once.merge(a);
  once.merge(b);
  again.merge(a);
  again.merge(b);
  expect_same(once, again);

  // Self-merge with a bitwise copy of a — the maximal full-key tie
  // adversary: every centroid of the incoming run equals one already held.
  // Weight must double exactly, and the doubled sketch answers quantiles
  // identically to plain a at every probe (same shape, twice the mass).
  const TDigest a2 = build(900);
  TDigest doubled(100);
  doubled.merge(a);
  doubled.merge(a2);
  EXPECT_DOUBLE_EQ(doubled.total_weight(), 2.0 * a.total_weight());
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_NEAR(doubled.quantile(q), a.quantile(q), 0.25) << "q=" << q;
  }
}

TEST(TDigest, ManyPartMergeOrderKeepsRankErrorUnderTies) {
  // With three or more parts, intermediate recompressions create new means,
  // so bitwise order-independence is not the contract — rank accuracy is.
  // Six tie-heavy shards (seed pairs make whole shards collide as duplicate
  // (mean, weight) runs) merged in three different orders must each stay
  // within the sketch's rank error of the exact tied distribution, and must
  // agree with each other to the same tolerance.
  std::vector<TDigest> parts;
  std::array<double, 8> weight_at{};
  double total = 0;
  for (int s = 0; s < 6; ++s) {
    TDigest p(100);
    Rng rng(static_cast<std::uint64_t>(700 + s / 2));  // pairs share a seed
    for (int i = 0; i < 5000; ++i) {
      const int v = rng.uniform_int(0, 7);
      const double w = static_cast<double>(rng.uniform_int(1, 3));
      p.add(static_cast<double>(v), w);
      weight_at[static_cast<std::size_t>(v)] += w;
      total += w;
    }
    parts.push_back(std::move(p));
  }

  TDigest fwd(100), rev(100), interleaved(100);
  for (const auto& p : parts) fwd.merge(p);
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) rev.merge(*it);
  for (std::size_t i : {1u, 4u, 0u, 5u, 2u, 3u}) interleaved.merge(parts[i]);

  for (const TDigest* d : {&fwd, &rev, &interleaved}) {
    EXPECT_DOUBLE_EQ(d->total_weight(), total);
    for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
      const double x = d->quantile(q);
      double below = 0;
      double at_or_below = 0;
      for (int v = 0; v < 8; ++v) {
        if (static_cast<double>(v) < x) below += weight_at[static_cast<std::size_t>(v)];
        if (static_cast<double>(v) <= x) at_or_below += weight_at[static_cast<std::size_t>(v)];
      }
      EXPECT_GE(q, below / total - 0.02) << "q=" << q;
      EXPECT_LE(q, at_or_below / total + 0.02) << "q=" << q;
    }
  }
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_NEAR(fwd.quantile(q), rev.quantile(q), 0.25) << "q=" << q;
    EXPECT_NEAR(fwd.quantile(q), interleaved.quantile(q), 0.25) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Batched quantile walk: TDigest::quantiles answers each q of a batch with
// exactly quantile(q)'s bits.
// ---------------------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Asserts quantiles(qs) == {quantile(q) for q in qs}, bitwise.
void expect_batch_matches_single_calls(const TDigest& d, const std::vector<double>& qs,
                                       const char* what) {
  std::vector<double> batch(qs.size(), -1.0);
  d.quantiles(qs, batch);
  for (std::size_t k = 0; k < qs.size(); ++k) {
    EXPECT_EQ(bits(batch[k]), bits(d.quantile(qs[k])))
        << what << ": q[" << k << "]=" << qs[k] << " batch=" << batch[k]
        << " single=" << d.quantile(qs[k]);
  }
}

/// A digest loaded from a hand-written state: exactly these centroids.
TDigest digest_from_centroids(const std::vector<TDigest::Centroid>& centroids,
                              double min, double max) {
  double total = 0;
  for (const auto& c : centroids) total += c.weight;
  ByteWriter w;
  w.f64(100.0);  // compression
  w.u64(static_cast<std::uint64_t>(total));
  w.f64(total);
  w.f64(min);
  w.f64(max);
  w.u64(centroids.size());
  for (const auto& c : centroids) {
    w.f64(c.mean);
    w.f64(c.weight);
  }
  const std::string bytes = w.take();
  ByteReader r(bytes.data(), bytes.size());
  TDigest d;
  EXPECT_TRUE(d.load(r));
  return d;
}

const std::vector<double> kEdgeBatch = {-0.5, 0.0, 0.0, 1e-12, 0.1, 0.25, 0.5,
                                        0.5,  0.75, 0.9, 0.999, 1.0, 1.0, 1.5};

TEST(TDigestBatch, EmptyOneAndTwoCentroidDigests) {
  const TDigest empty;
  std::vector<double> out(kEdgeBatch.size(), 0.0);
  empty.quantiles(kEdgeBatch, out);
  for (const double v : out) EXPECT_TRUE(std::isnan(v));
  expect_batch_matches_single_calls(empty, kEdgeBatch, "empty");
  empty.quantiles({}, {});  // an empty batch is a no-op

  TDigest one;
  one.add(42.0);
  expect_batch_matches_single_calls(one, kEdgeBatch, "one centroid");
  one.quantiles(kEdgeBatch, out);
  for (const double v : out) EXPECT_EQ(v, 42.0);

  const TDigest two = digest_from_centroids({{1.0, 3.0}, {5.0, 1.0}}, 0.5, 7.0);
  expect_batch_matches_single_calls(two, kEdgeBatch, "two centroids");
  const TDigest two_heavy = digest_from_centroids({{1.0, 1.0}, {2.0, 9.0}}, 1.0, 2.0);
  expect_batch_matches_single_calls(two_heavy, kEdgeBatch, "two, heavy tail");
}

TEST(TDigestBatch, RepeatedAndSignedZeroAndSubnormalMeansLoadedFromBytes) {
  const double sub = std::numeric_limits<double>::denorm_min();
  const TDigest repeated = digest_from_centroids(
      {{2.0, 1.0}, {2.0, 1.0}, {2.0, 4.0}, {3.0, 2.0}, {3.0, 2.0}}, 2.0, 3.0);
  expect_batch_matches_single_calls(repeated, kEdgeBatch, "repeated means");
  const TDigest zeros = digest_from_centroids(
      {{-0.0, 1.0}, {0.0, 2.0}, {-0.0, 3.0}, {sub, 1.0}, {4 * sub, 2.0}}, -0.0, 4 * sub);
  expect_batch_matches_single_calls(zeros, kEdgeBatch, "signed zeros and subnormals");
  // Subnormal weights make midpoints collide with their neighbours.
  const TDigest tiny = digest_from_centroids(
      {{1.0, sub}, {2.0, sub}, {3.0, 1.0}, {4.0, sub}}, 0.0, 5.0);
  expect_batch_matches_single_calls(tiny, kEdgeBatch, "subnormal weights");
  std::vector<double> fine;
  for (int i = 0; i <= 64; ++i) fine.push_back(i / 64.0);
  expect_batch_matches_single_calls(zeros, fine, "signed zeros, fine grid");
  expect_batch_matches_single_calls(repeated, fine, "repeated means, fine grid");
}

TEST(TDigestBatch, EndpointsAndTargetsPastTheLastMidpoint) {
  // Last centroid's midpoint at 9.5 of 10: every q above 0.95 interpolates
  // toward max, and q = 1 lands on max itself.
  const TDigest d =
      digest_from_centroids({{1.0, 2.0}, {4.0, 3.0}, {6.0, 4.0}, {8.0, 1.0}}, 0.0, 10.0);
  const std::vector<double> tail = {0.0, 0.94, 0.95, 0.951, 0.97, 0.99, 1.0, 1.0, 2.0};
  expect_batch_matches_single_calls(d, tail, "tail");
  std::vector<double> out(tail.size());
  d.quantiles(tail, out);
  EXPECT_EQ(out.front(), 0.0);  // q = 0 is min
  EXPECT_EQ(out[6], 10.0);      // q = 1 is max
  // A batch entirely past the last midpoint, and one entirely before the
  // first.
  expect_batch_matches_single_calls(d, {0.96, 0.98, 1.0}, "all past the last mid");
  expect_batch_matches_single_calls(d, {0.0, 0.01, 0.05}, "all before the first mid");
}

TEST(TDigestBatch, AnyOrderMatchesSingleCalls) {
  // Ascending is the one-walk case; a smaller target, or NaN, restarts the
  // walk from the front and still answers exactly.
  Rng rng(4242);
  TDigest d;
  for (int i = 0; i < 3000; ++i) d.add(rng.lognormal(1.0, 0.7));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_batch_matches_single_calls(d, {0.9, 0.1, 0.5, 0.5, 0.2, 0.95}, "descending");
  expect_batch_matches_single_calls(d, {0.3, nan, 0.4, nan, 0.1}, "NaN");
}

TEST(TDigestBatch, RandomDigestsMatchSingleCalls) {
  Rng rng(20191016);
  for (int trial = 0; trial < 1000; ++trial) {
    TDigest d(rng.uniform(20.0, 200.0));
    const auto n = rng.uniform_int(1, 3000);
    const bool atoms = rng.bernoulli(0.3);  // duplicate-heavy values
    for (std::int64_t i = 0; i < n; ++i) {
      double v = rng.lognormal(2.0, 1.0);
      if (atoms) v = std::floor(v);
      d.add(v, rng.bernoulli(0.2) ? rng.uniform(0.1, 5.0) : 1.0);
    }
    std::vector<double> qs;
    const auto k = rng.uniform_int(1, 8);
    for (std::int64_t i = 0; i < k; ++i) qs.push_back(rng.uniform(-0.05, 1.05));
    qs.push_back(0.5);
    qs.push_back(qs.front());  // a repeated target
    std::sort(qs.begin(), qs.end());
    expect_batch_matches_single_calls(d, qs, "random");
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

TEST(MedianSummary, EqualsTheSingleQuantileCalls) {
  Rng rng(77);
  for (const int n : {0, 1, 4, 5, 6, 30, 31, 500, 20000}) {
    TDigest d;
    for (int i = 0; i < n; ++i) d.add(rng.normal(0.05, 0.01));
    const double z = confidence_z(0.95);
    const MedianSummary s = summarize_median(d, z);
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(n));
    EXPECT_EQ(bits(s.z), bits(normal_quantile(0.975)));
    EXPECT_EQ(bits(s.ci.estimate), bits(d.quantile(0.5))) << n;
    if (n < 5) {
      EXPECT_TRUE(std::isnan(s.ci.lower) && std::isnan(s.ci.upper)) << n;
      continue;
    }
    // The order-statistic bracket, converted to quantiles of the sketch.
    const double nd = n;
    const double half = z * std::sqrt(nd) / 2.0;
    const double lo_q = (std::max(1.0, nd / 2.0 - half) - 1.0) / (nd - 1.0);
    const double hi_q = (std::min(nd, nd / 2.0 + half + 1.0) - 1.0) / (nd - 1.0);
    EXPECT_EQ(bits(s.ci.lower), bits(d.quantile(lo_q))) << n;
    EXPECT_EQ(bits(s.ci.upper), bits(d.quantile(hi_q))) << n;
    const ConfidenceInterval ci = median_confidence_interval(d);
    EXPECT_EQ(bits(ci.estimate), bits(s.ci.estimate));
    EXPECT_EQ(bits(ci.lower), bits(s.ci.lower));
    EXPECT_EQ(bits(ci.upper), bits(s.ci.upper));
    // A digest converts to its summary at alpha 0.95.
    const MedianSummary implicit = d;
    EXPECT_EQ(std::memcmp(&implicit, &s, sizeof s), 0);
  }
}

TEST(MedianSummary, DifferenceIsPriceBonettOverTheSummaries) {
  Rng rng(53);
  TDigest a, b;
  for (int i = 0; i < 800; ++i) {
    a.add(rng.normal(0.060, 0.004));
    b.add(rng.normal(0.052, 0.006));
  }
  for (const double alpha : {0.9, 0.95, 0.99}) {
    const double z = normal_quantile(0.5 + alpha / 2.0);
    const MedianSummary sa = summarize_median(a, confidence_z(alpha));
    const MedianSummary sb = summarize_median(b, confidence_z(alpha));
    const ConfidenceInterval ca = median_confidence_interval(a, alpha);
    const ConfidenceInterval cb = median_confidence_interval(b, alpha);
    const double se_a = ca.width() / (2.0 * z);
    const double se_b = cb.width() / (2.0 * z);
    const double se = std::sqrt(se_a * se_a + se_b * se_b);
    const ConfidenceInterval diff = median_difference_interval(sa, sb);
    EXPECT_EQ(bits(diff.estimate), bits(ca.estimate - cb.estimate)) << alpha;
    EXPECT_EQ(bits(diff.lower), bits(diff.estimate - z * se)) << alpha;
    EXPECT_EQ(bits(diff.upper), bits(diff.estimate + z * se)) << alpha;
  }
}

// ---------------------------------------------------------------------------
// normal_quantile.
// ---------------------------------------------------------------------------

// Differential check of the selection-based quantile() against the sorting
// quantile_sorted() ground truth, on duplicate-heavy inputs. Duplicates are
// the adversarial case for nth_element-based selection: the lower order
// statistic sits inside a run of equal values and the "upper" statistic is
// the min of an unordered tail full of the same value — any off-by-one in
// the partition logic shows up as a non-bitwise result here.
TEST(Quantiles, SelectionMatchesSortOnDuplicateHeavyInputs) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    // Few distinct values, many repeats (HDratio-like atoms at 0 and 1).
    const int distinct = 1 + static_cast<int>(rng.uniform_int(1, 5));
    std::vector<double> atoms;
    for (int i = 0; i < distinct; ++i) atoms.push_back(rng.uniform(0.0, 1.0));
    atoms.push_back(0.0);
    atoms.push_back(1.0);

    const int n = 1 + static_cast<int>(rng.uniform_int(1, 400));
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      values.push_back(
          atoms[static_cast<std::size_t>(rng.uniform_int(0, distinct + 1))]);
    }

    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double exact = quantile_sorted(sorted, q);
      const double selected = quantile(values, q);  // copies; values reusable
      EXPECT_EQ(exact, selected) << "trial=" << trial << " n=" << n << " q=" << q;
    }
  }
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.841344746), 1.0, 1e-5);
}

// ---------------------------------------------------------------------------
// Median confidence intervals.
// ---------------------------------------------------------------------------

TEST(MedianCi, ContainsSampleMedian) {
  Rng rng(11);
  std::vector<double> xs, scratch;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(50, 10));
  const auto ci = median_confidence_interval(xs, scratch);
  EXPECT_LE(ci.lower, ci.estimate);
  EXPECT_GE(ci.upper, ci.estimate);
  EXPECT_NEAR(ci.estimate, 50.0, 2.0);
}

TEST(MedianCi, CoverageNearNominal) {
  // Monte Carlo: the 95% CI should contain the true median (= 0 for a
  // standard normal) in roughly 95% of trials.
  Rng rng(17);
  int covered = 0;
  const int trials = 400;
  std::vector<double> scratch;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs;
    for (int i = 0; i < 81; ++i) xs.push_back(rng.normal(0, 1));
    const auto ci = median_confidence_interval(xs, scratch, 0.95);
    if (ci.contains(0.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GE(coverage, 0.90);
  EXPECT_LE(coverage, 0.995);
}

TEST(MedianCi, WidthShrinksWithSampleSize) {
  Rng rng(23);
  std::vector<double> scratch;
  auto make = [&](int n) {
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) xs.push_back(rng.normal(0, 1));
    return median_confidence_interval(xs, scratch).width();
  };
  EXPECT_GT(make(50), make(5000));
}

TEST(MedianCi, SketchAgreesWithExact) {
  Rng rng(31);
  std::vector<double> xs, scratch;
  TDigest d;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.lognormal(2, 0.5);
    xs.push_back(v);
    d.add(v);
  }
  const auto exact = median_confidence_interval(xs, scratch);
  const auto sketch = median_confidence_interval(d);
  EXPECT_NEAR(sketch.estimate, exact.estimate, 0.05 * exact.estimate);
  EXPECT_NEAR(sketch.lower, exact.lower, 0.1 * exact.estimate);
  EXPECT_NEAR(sketch.upper, exact.upper, 0.1 * exact.estimate);
}

TEST(MedianDifference, DetectsShift) {
  Rng rng(41);
  std::vector<double> a, b, scratch;
  for (int i = 0; i < 300; ++i) {
    a.push_back(rng.normal(60, 5));
    b.push_back(rng.normal(50, 5));
  }
  const auto ci = median_difference_interval(a, b, scratch);
  EXPECT_NEAR(ci.estimate, 10.0, 2.0);
  EXPECT_GT(ci.lower, 5.0);  // clearly positive
}

TEST(MedianDifference, NoFalseShiftOnEqualDistributions) {
  Rng rng(43);
  int false_positive = 0;
  const int trials = 200;
  std::vector<double> scratch;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a, b;
    for (int i = 0; i < 100; ++i) {
      a.push_back(rng.normal(50, 5));
      b.push_back(rng.normal(50, 5));
    }
    const auto ci = median_difference_interval(a, b, scratch);
    if (!ci.contains(0.0)) ++false_positive;
  }
  EXPECT_LE(false_positive, trials / 10);  // ~5% nominal
}

TEST(MedianCi, SelectionMatchesFullSortBitwise) {
  // The nth_element-based selector must reproduce the full-sort reference
  // computation exactly — same order statistics, same interpolation — so
  // every CI is bitwise identical to the pre-selection implementation.
  Rng rng(53);
  std::vector<double> scratch;
  for (const int n : {5, 6, 7, 30, 81, 500, 4097}) {
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) xs.push_back(rng.lognormal(1, 0.8));
    // duplicate-heavy variant exercises equal-element partitions too
    for (int i = 0; i < n / 3; ++i) xs[static_cast<std::size_t>(i)] = 7.25;
    for (const double alpha : {0.5, 0.8, 0.95, 0.999}) {
      // Reference: full sort + interpolated order statistics.
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      const double z = normal_quantile(0.5 + alpha / 2.0);
      const double half_width = z * std::sqrt(static_cast<double>(n)) / 2.0;
      const double lo_pos =
          std::max(1.0, static_cast<double>(n) / 2.0 - half_width) - 1.0;
      const double hi_pos =
          std::min(static_cast<double>(n),
                   static_cast<double>(n) / 2.0 + half_width + 1.0) - 1.0;
      auto at = [&](double pos) {
        pos = std::clamp(pos, 0.0, static_cast<double>(n - 1));
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
      };
      const auto ci = median_confidence_interval(xs, scratch, alpha);
      EXPECT_EQ(ci.estimate, at(0.5 * (n - 1)));
      EXPECT_EQ(ci.lower, at(lo_pos));
      EXPECT_EQ(ci.upper, at(hi_pos));
    }
  }
}

TEST(MedianDifference, SketchDetectsShiftToo) {
  Rng rng(47);
  TDigest a, b;
  for (int i = 0; i < 2000; ++i) {
    a.add(rng.normal(0.060, 0.005));
    b.add(rng.normal(0.050, 0.005));
  }
  const auto ci = median_difference_interval(a, b);
  EXPECT_GT(ci.lower, 0.005);  // >= 5 ms improvement, confidently
}

// ---------------------------------------------------------------------------
// WeightedCdf.
// ---------------------------------------------------------------------------

TEST(WeightedCdf, FractionsAndQuantiles) {
  WeightedCdf cdf;
  cdf.add(1.0, 1.0);
  cdf.add(2.0, 1.0);
  cdf.add(3.0, 2.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 3.0);
}

TEST(WeightedCdf, MergeEqualsCombinedExactly) {
  // WeightedCdf::merge appends raw points, so merge-of-parts is *exactly*
  // the single-pass distribution — the property the runtime reducer
  // relies on for byte-identical bench output at any thread count.
  Rng rng(59);
  WeightedCdf parts[3], combined;
  for (int i = 0; i < 3000; ++i) {
    const double v = rng.lognormal(0, 1);
    const double w = rng.uniform(0.5, 2.0);
    parts[i % 3].add(v, w);
    combined.add(v, w);
  }
  WeightedCdf merged;
  for (const auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.size(), combined.size());
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), combined.quantile(q));
  }
  EXPECT_DOUBLE_EQ(merged.fraction_at_or_below(1.0),
                   combined.fraction_at_or_below(1.0));
}

TEST(WeightedCdf, SeriesIsMonotone) {
  Rng rng(53);
  WeightedCdf cdf;
  for (int i = 0; i < 1000; ++i) cdf.add(rng.lognormal(0, 1), rng.uniform(0.5, 2));
  double prev = -1e300;
  for (const auto& [v, q] : cdf.series(25)) {
    EXPECT_GE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace fbedge
