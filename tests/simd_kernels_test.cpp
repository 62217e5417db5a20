// Differential tests pinning the AVX2 HD batch kernel bitwise-equal to its
// scalar reference (the contract in util/simd.h): a randomized 100-seed
// sweep over batches that include ragged tails (rows and counts not
// multiples of the lane width), degenerate timings (NaN/inf/zero/negative
// fields), zero-transaction sessions, and directed edge cases for the
// kernel's fast-path boundaries. All tests skip on hosts without AVX2 — the
// scalar path is covered by the per-module tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "goodput/hdratio.h"
#include "util/rng.h"
#include "util/simd.h"

namespace fbedge {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool avx2_available() { return simd::compiled_avx2() && simd::cpu_supports_avx2(); }

// ---------------------------------------------------------------------------
// evaluate_hd_batch
// ---------------------------------------------------------------------------

struct HdBatch {
  std::vector<TxnTiming> txns;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> counts;
};

// A transaction drawn from a mix of realistic and adversarial values: every
// field can independently be degenerate, so batches exercise the validity
// gate, the guard-zone log2 fallback, and the >=2^52 conversion fallback.
TxnTiming random_txn(Rng& rng) {
  TxnTiming t;
  switch (rng.uniform_int(0, 9)) {
    case 0: t.btotal = 0; break;
    case 1: t.btotal = -rng.uniform_int(1, 1 << 20); break;
    case 2: t.btotal = (1LL << 52) + rng.uniform_int(0, 1 << 20); break;  // big-conversion path
    default: t.btotal = rng.uniform_int(1, 10'000'000); break;
  }
  switch (rng.uniform_int(0, 9)) {
    case 0: t.wnic = 0; break;
    case 1: t.wnic = -rng.uniform_int(1, 100'000); break;
    default: t.wnic = rng.uniform_int(1, 150'000); break;
  }
  switch (rng.uniform_int(0, 11)) {
    case 0: t.min_rtt = 0; break;
    case 1: t.min_rtt = -rng.uniform(0.001, 1.0); break;
    case 2: t.min_rtt = kNan; break;
    case 3: t.min_rtt = kInf; break;
    default: t.min_rtt = rng.uniform(0.0005, 0.5); break;
  }
  switch (rng.uniform_int(0, 11)) {
    case 0: t.ttotal = 0; break;
    case 1: t.ttotal = -rng.uniform(0.001, 1.0); break;
    case 2: t.ttotal = kNan; break;
    case 3: t.ttotal = kInf; break;
    default: t.ttotal = rng.uniform(0.0005, 10.0); break;
  }
  return t;
}

HdBatch random_hd_batch(Rng& rng) {
  HdBatch b;
  const int rows = static_cast<int>(rng.uniform_int(0, 41));  // ragged vs lane width 4
  for (int i = 0; i < rows; ++i) {
    // ~1 in 5 rows has zero transactions; counts straddle lane multiples.
    const std::uint32_t n =
        rng.bernoulli(0.2) ? 0 : static_cast<std::uint32_t>(rng.uniform_int(1, 9));
    b.offsets.push_back(static_cast<std::uint32_t>(b.txns.size()));
    b.counts.push_back(n);
    for (std::uint32_t j = 0; j < n; ++j) b.txns.push_back(random_txn(rng));
  }
  return b;
}

void expect_hd_identical(const HdBatch& b, GoodputConfig config, std::uint64_t seed) {
  const std::size_t rows = b.counts.size();
  std::vector<SessionHd> ref(rows), simd_out(rows);
  // Poison both outputs differently so "kernel wrote nothing" cannot pass.
  for (std::size_t i = 0; i < rows; ++i) {
    ref[i] = {-1, -1, -1};
    simd_out[i] = {-2, -2, -2};
  }
  evaluate_hd_batch_scalar(b.txns.data(), b.offsets.data(), b.counts.data(), rows, ref.data(),
                           config);
  evaluate_hd_batch_avx2(b.txns.data(), b.offsets.data(), b.counts.data(), rows,
                         simd_out.data(), config);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(ref[i].tested, simd_out[i].tested) << "seed=" << seed << " row=" << i;
    EXPECT_EQ(ref[i].achieved, simd_out[i].achieved) << "seed=" << seed << " row=" << i;
    EXPECT_EQ(ref[i].achieved_naive, simd_out[i].achieved_naive)
        << "seed=" << seed << " row=" << i;
  }
}

TEST(SimdHdBatch, HundredSeedDifferentialSweep) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host/build";
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const HdBatch b = random_hd_batch(rng);
    expect_hd_identical(b, GoodputConfig{}, seed);
    // A second target rate moves the can_test boundary through the batch.
    expect_hd_identical(b, GoodputConfig{10 * kMbps}, seed);
  }
}

TEST(SimdHdBatch, ExactPowerOfTwoRatiosTakeGuardZone) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host/build";
  // ratio = Btotal/Wstart + 1 lands exactly on (or within a few ulps of) a
  // power of two: the rounds() fast path must defer to the scalar log2
  // sequence in the guard zone, including f == 0 where the two disagree.
  HdBatch b;
  const Bytes wnics[] = {1, 2, 1024, 1500, 65536, 1 << 20};
  for (Bytes w : wnics) {
    for (int k = 1; k <= 20; ++k) {
      for (Bytes delta : {-2, -1, 0, 1, 2}) {
        const Bytes btotal = w * ((1LL << k) - 1) + delta;
        if (btotal <= 0) continue;
        b.offsets.push_back(static_cast<std::uint32_t>(b.txns.size()));
        b.counts.push_back(1);
        b.txns.push_back(TxnTiming{btotal, 0.05, w, 0.02});
      }
    }
  }
  expect_hd_identical(b, GoodputConfig{}, 0);
}

TEST(SimdHdBatch, DegenerateAndRaggedRows) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host/build";
  // All-degenerate rows, zero-transaction rows at the batch edges, and row
  // counts that never align with the lane width.
  HdBatch b;
  auto push_row = [&](std::vector<TxnTiming> txns) {
    b.offsets.push_back(static_cast<std::uint32_t>(b.txns.size()));
    b.counts.push_back(static_cast<std::uint32_t>(txns.size()));
    for (const auto& t : txns) b.txns.push_back(t);
  };
  push_row({});
  push_row({TxnTiming{0, 0.0, 0, 0.0}});
  push_row({TxnTiming{-5, kNan, -1, kInf}, TxnTiming{50000, 0.08, 15000, 0.03}});
  push_row({TxnTiming{1, 1e-9, 1, 1e-9}, TxnTiming{1, kInf, 1, kNan},
            TxnTiming{10'000'000, 0.5, 1500, 0.001}});
  push_row({});
  push_row({TxnTiming{(1LL << 52) + 3, 2.0, 1 << 20, 0.2},
            TxnTiming{12345, 0.01, 4096, 0.004}, TxnTiming{1, 0.5, 1, 0.5},
            TxnTiming{999983, 0.07, 14600, 0.033}, TxnTiming{2, 0.5, 3, 0.25}});
  push_row({});
  expect_hd_identical(b, GoodputConfig{}, 0);
  expect_hd_identical(b, GoodputConfig{0.4 * kMbps}, 0);
}

TEST(SimdDispatch, PublicEntryFollowsForcedPath) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host/build";
  Rng rng(42);
  const HdBatch b = random_hd_batch(rng);
  const std::size_t rows = b.counts.size();
  std::vector<SessionHd> ref(rows), via_dispatch(rows);
  evaluate_hd_batch_scalar(b.txns.data(), b.offsets.data(), b.counts.data(), rows, ref.data(),
                           GoodputConfig{});
  simd::force_path(simd::Path::kAvx2);
  EXPECT_TRUE(simd::avx2_active());
  EXPECT_STREQ(simd::dispatch_source(), "forced");
  evaluate_hd_batch(b.txns.data(), b.offsets.data(), b.counts.data(), rows,
                    via_dispatch.data(), GoodputConfig{});
  simd::force_path(simd::Path::kScalar);
  EXPECT_FALSE(simd::avx2_active());
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(ref[i].tested, via_dispatch[i].tested) << i;
    EXPECT_EQ(ref[i].achieved, via_dispatch[i].achieved) << i;
    EXPECT_EQ(ref[i].achieved_naive, via_dispatch[i].achieved_naive) << i;
  }
}

}  // namespace
}  // namespace fbedge
