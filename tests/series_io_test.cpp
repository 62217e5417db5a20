// Serialization coverage for the ingest-artifact cache: bitwise round-trip
// properties for the binio primitives, TDigest (its bulk centroid decode at
// every byte alignment), and GroupSeries; the XXH64 artifact checksum;
// rejection of truncated / corrupted / wrong-epoch artifacts by both opens
// (always a clean miss, never a crash); concurrent, post-open-corrupted and
// index-only IngestArtifactReader reads; and end-to-end warm == cold
// equivalence through run_edge_analysis, including each blob read once,
// the whole-or-nothing corruption fallback and failed artifact writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agg/series_io.h"
#include "analysis/edge_analysis.h"
#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "util/binio.h"
#include "util/rng.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// binio primitives.
// ---------------------------------------------------------------------------

TEST(BinIo, F64PayloadsRoundTripBitwise) {
  const std::uint64_t patterns[] = {
      0x7ff8000000000000ULL,  // quiet NaN
      0x7ff8deadbeef1234ULL,  // NaN with payload bits
      0xfff0000000000000ULL,  // -inf
      0x7ff0000000000000ULL,  // +inf
      0x8000000000000000ULL,  // -0.0
      0x0000000000000001ULL,  // smallest denormal
      0x3ff0000000000000ULL,  // 1.0
  };
  ByteWriter w;
  for (const std::uint64_t bits : patterns) w.f64(std::bit_cast<double>(bits));
  ByteReader r(w.data().data(), w.size());
  for (const std::uint64_t bits : patterns) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), bits);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, ReaderLatchesOnOverrunAndReturnsZeros) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.data().data(), w.size());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // latched: everything after reads zero
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, BulkBytesLatchOnOverrunAndLeaveTheTargetUntouched) {
  const char src[] = {'a', 'b', 'c', 'd', 'e'};
  ByteReader r(src, sizeof(src));
  char got[4] = {'x', 'x', 'x', 'x'};
  ASSERT_TRUE(r.bytes(got, 3));
  EXPECT_EQ(std::string(got, 4), "abcx");
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_TRUE(r.bytes(got, 0));
  EXPECT_FALSE(r.bytes(got, 3));  // overrun: two bytes left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(std::string(got, 4), "abcx");
  EXPECT_EQ(r.u8(), 0u);  // latched, like u64()
  EXPECT_FALSE(r.bytes(got, 0));
  EXPECT_EQ(r.remaining(), 0u);

  // An exact fit succeeds and leaves nothing.
  ByteReader exact(src, sizeof(src));
  char all[5];
  ASSERT_TRUE(exact.bytes(all, sizeof(all)));
  EXPECT_EQ(std::string(all, 5), "abcde");
  EXPECT_TRUE(exact.ok());
  EXPECT_EQ(exact.remaining(), 0u);
}

TEST(BinIo, FastAppendsMatchPerByteEncoding) {
  // The block-append u32/u64 paths must emit exactly the bytes the original
  // per-byte push_back encoder did — little-endian, low byte first — or
  // every committed ingest artifact would silently change.
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t v =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 62)) * 3u;
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(v));
    w.u64(v);
    std::string ref;
    for (int i = 0; i < 4; ++i) ref.push_back(static_cast<char>(v >> (8 * i)));
    for (int i = 0; i < 8; ++i) ref.push_back(static_cast<char>(v >> (8 * i)));
    ASSERT_EQ(w.data(), ref);
  }
}

TEST(BinIo, Xxh64MatchesPublishedVectors) {
  const auto hash = [](const char* text) { return xxh64(text, std::strlen(text)); };
  EXPECT_EQ(hash(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(hash("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(hash("abc"), 0x44bc2cf5ad770999ULL);
  // 39 bytes: one 32-byte stripe, then the 4- and 1-byte tails.
  EXPECT_EQ(hash("Nobody inspects the spammish repetition"), 0xfbcea83c8a378bf1ULL);
  // 43 bytes: one stripe, then the 8- and 1-byte tails.
  EXPECT_EQ(hash("The quick brown fox jumps over the lazy dog"), 0x0b242d361fda71bcULL);
}

// ---------------------------------------------------------------------------
// TDigest round-trips.
// ---------------------------------------------------------------------------

std::string digest_bytes(const TDigest& d) {
  ByteWriter w;
  d.save(w);
  return w.take();
}

void expect_digest_roundtrip_bitwise(const TDigest& d) {
  const std::string bytes = digest_bytes(d);
  TDigest loaded(37.0);  // different compression: load must overwrite it
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.load(r));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  // Strongest check first: the loaded state re-serializes byte-identically,
  // so every field (incl. NaN/inf min-max payloads) survived verbatim.
  EXPECT_EQ(digest_bytes(loaded), bytes);
  EXPECT_EQ(loaded.count(), d.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.total_weight()),
            std::bit_cast<std::uint64_t>(d.total_weight()));
  if (!d.empty()) {
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.quantile(q)),
                std::bit_cast<std::uint64_t>(d.quantile(q)))
          << "q=" << q;
    }
  }
}

TEST(TDigestIo, RandomDigestsRoundTripBitwise) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    TDigest d;
    const int n = static_cast<int>(rng.uniform_int(1, 4000));
    for (int i = 0; i < n; ++i) d.add(rng.lognormal(0, 1.2), rng.uniform(0.5, 3));
    expect_digest_roundtrip_bitwise(d);
  }
}

TEST(TDigestIo, EmptyDigestRoundTrips) {
  // An empty digest carries min = +inf, max = -inf — the non-finite fields
  // must travel as raw bit patterns.
  expect_digest_roundtrip_bitwise(TDigest(100.0));
}

TEST(TDigestIo, NegativeZeroRoundTrips) {
  TDigest d;
  for (int i = 0; i < 50; ++i) d.add(i % 2 == 0 ? -0.0 : 0.0);
  expect_digest_roundtrip_bitwise(d);
}

TEST(TDigestIo, DuplicateHeavyCentroidsRoundTripBitwise) {
  TDigest d;
  for (int i = 0; i < 10000; ++i) d.add(0.042);
  for (int i = 0; i < 7; ++i) d.add(0.001 * i);
  expect_digest_roundtrip_bitwise(d);
}

TEST(TDigestIo, TruncatedInputFailsCleanly) {
  TDigest d;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) d.add(rng.uniform(0, 1));
  const std::string bytes = digest_bytes(d);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    TDigest target;
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(target.load(r)) << "prefix of " << len << " bytes";
    EXPECT_TRUE(target.empty());  // failed load leaves the digest reset
  }
}

TEST(TDigestIo, GarbageInputFailsCleanly) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk(rng.uniform_int(0, 256), '\0');
    for (char& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
    TDigest target;
    ByteReader r(junk.data(), junk.size());
    target.load(r);  // must not crash; success is allowed only if ok()
  }
}

/// A saved digest of real data whose first centroids are overwritten with
/// IEEE-754 edge patterns: load() must carry every bit of the centroid
/// array, whatever the values mean.
std::string digest_bytes_with_edge_centroids() {
  TDigest d;
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) d.add(rng.lognormal(0, 1.0), rng.uniform(0.5, 2));
  std::string bytes = digest_bytes(d);
  const std::uint64_t patterns[] = {
      0x7ff8000000000000ULL,  // quiet NaN
      0x7ff4deadbeef1234ULL,  // signaling NaN with payload bits
      0xfff8000000000abcULL,  // negative NaN with payload bits
      0x7ff0000000000000ULL,  // +inf
      0xfff0000000000000ULL,  // -inf
      0x0000000000000000ULL,  // +0.0
      0x8000000000000000ULL,  // -0.0
      0x0000000000000001ULL,  // smallest subnormal
      0x800fffffffffffffULL,  // largest negative subnormal
      0x000ffffffffffff0ULL,  // subnormal
  };
  constexpr std::size_t kHeader = 6 * 8;
  const std::size_t fields = (bytes.size() - kHeader) / 8;
  EXPECT_GE(fields, 2 * std::size(patterns));
  // Means (even fields) and weights (odd fields) both get every pattern.
  for (std::size_t i = 0; i < std::size(patterns); ++i) {
    for (const std::size_t field : {2 * i, 2 * (std::size(patterns) - 1 - i) + 1}) {
      for (int b = 0; b < 8; ++b) {
        bytes[kHeader + 8 * field + static_cast<std::size_t>(b)] =
            static_cast<char>(patterns[i] >> (8 * b));
      }
    }
  }
  return bytes;
}

TEST(TDigestIo, BulkDecodeIsBitwiseAtEveryByteAlignment) {
  const std::string bytes = digest_bytes_with_edge_centroids();
  // Backing store of 8-byte words, so offset 0 is 8-aligned and offsets
  // 1..7 cover every misalignment of the centroid array.
  std::vector<std::uint64_t> words(bytes.size() / 8 + 2);
  char* base = reinterpret_cast<char*>(words.data());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::memcpy(base + offset, bytes.data(), bytes.size());
    TDigest loaded(50.0);
    ByteReader r(base + offset, bytes.size());
    ASSERT_TRUE(loaded.load(r)) << "offset " << offset;
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(digest_bytes(loaded), bytes) << "offset " << offset;
    // The centroid fields themselves, bit for bit, as read from the wire.
    const auto& cs = loaded.centroids();
    ASSERT_EQ(cs.size(), (bytes.size() - 48) / 16);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      std::uint64_t mean_bits = 0;
      std::uint64_t weight_bits = 0;
      for (int b = 7; b >= 0; --b) {
        mean_bits = mean_bits << 8 |
                    static_cast<unsigned char>(bytes[48 + 16 * i + static_cast<std::size_t>(b)]);
        weight_bits = weight_bits << 8 |
                      static_cast<unsigned char>(
                          bytes[48 + 16 * i + 8 + static_cast<std::size_t>(b)]);
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cs[i].mean), mean_bits)
          << "offset " << offset << " centroid " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cs[i].weight), weight_bits)
          << "offset " << offset << " centroid " << i;
    }
  }
}

TEST(TDigestIo, TruncatedCentroidArrayResetsTheDigest) {
  const std::string bytes = digest_bytes_with_edge_centroids();
  // Every length that cuts into the centroid array (the header is intact,
  // so only the bounds checks on the array can reject), loaded into a
  // digest that already holds data: each load fails and leaves it
  // reset-empty.
  for (std::size_t len = 48; len < bytes.size(); ++len) {
    TDigest target;
    for (int i = 0; i < 100; ++i) target.add(i);
    ByteReader r(bytes.data(), len);
    ASSERT_FALSE(target.load(r)) << "prefix of " << len << " bytes";
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(target.empty());
    EXPECT_EQ(target.count(), 0u);
    EXPECT_TRUE(target.centroids().empty());
    EXPECT_EQ(target.min(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(target.max(), -std::numeric_limits<double>::infinity());
  }
}

// ---------------------------------------------------------------------------
// GroupSeries round-trips.
// ---------------------------------------------------------------------------

GroupSeries make_series(std::uint64_t seed) {
  Rng rng(seed);
  GroupSeries series;
  series.continent = Continent::kSouthAmerica;
  for (const int w : {3, 17, 18, 96}) {
    auto& agg = series.windows[w];
    const int routes = static_cast<int>(rng.uniform_int(1, 4));
    for (int route = 0; route < routes; ++route) {
      const int sessions = static_cast<int>(rng.uniform_int(1, 40));
      for (int s = 0; s < sessions; ++s) {
        const std::optional<double> hd =
            rng.bernoulli(0.8) ? std::optional<double>(rng.uniform(0, 1))
                               : std::nullopt;
        agg.route(route).add_session(rng.uniform(0.01, 0.3), hd,
                                     rng.uniform_int(1000, 500000));
      }
    }
  }
  return series;
}

std::string series_bytes(const GroupSeries& series) {
  ByteWriter w;
  save_group_series(series, w);
  return w.take();
}

TEST(SeriesIo, RoundTripIsBitwise) {
  const GroupSeries original = make_series(55);
  const std::string bytes = series_bytes(original);

  GroupSeries fresh;
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(load_group_series(r, fresh, nullptr));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(series_bytes(fresh), bytes);
  EXPECT_EQ(fresh.continent, original.continent);
  EXPECT_EQ(fresh.windows.size(), original.windows.size());
  EXPECT_EQ(fresh.total_traffic(), original.total_traffic());
}

TEST(SeriesIo, SavedSizePredictsActualBytesExactly) {
  // save_group_series reserves from this precomputed count; an over- or
  // under-estimate would mean either wasted memory or a silent fall back to
  // the geometric growth path the reserve exists to avoid.
  for (const std::uint64_t seed : {55u, 60u, 61u, 62u}) {
    const GroupSeries series = make_series(seed);
    EXPECT_EQ(group_series_saved_size(series), series_bytes(series).size())
        << "seed " << seed;
  }
  GroupSeries empty;
  empty.continent = Continent::kEurope;
  EXPECT_EQ(group_series_saved_size(empty), series_bytes(empty).size());
}

TEST(SeriesIo, SaveIntoPartiallyFilledWriterAppends) {
  // The reserve is relative to what the writer already holds; prior content
  // must survive untouched and the appended region must match a clean save.
  const GroupSeries series = make_series(63);
  ByteWriter w;
  w.u64(0xfeedface12345678ULL);
  const std::size_t prefix = w.size();
  save_group_series(series, w);
  const std::string combined = w.take();
  EXPECT_EQ(combined.substr(prefix), series_bytes(series));
  ByteReader r(combined.data(), combined.size());
  EXPECT_EQ(r.u64(), 0xfeedface12345678ULL);
}

TEST(SeriesIo, LoadIntoDirtyPooledSeriesMatches) {
  const GroupSeries original = make_series(56);
  const std::string bytes = series_bytes(original);

  // A series that has already ingested a different group, recycled through
  // the pool, must deserialize to the identical state (warm buffers only).
  RouteAggPool pool;
  GroupSeries target = make_series(99);
  pool.recycle(target);
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(load_group_series(r, target, &pool));
  EXPECT_EQ(series_bytes(target), bytes);
}

TEST(SeriesIo, TruncatedInputFailsCleanly) {
  const std::string bytes = series_bytes(make_series(57));
  RouteAggPool pool;
  for (std::size_t len = 0; len < bytes.size(); len += 3) {
    GroupSeries target;
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(load_group_series(r, target, &pool)) << "prefix " << len;
    EXPECT_TRUE(target.windows.empty());  // failed load leaves it empty
  }
}

TEST(SeriesIo, RejectsNonAscendingWindows) {
  GroupSeries series;
  series.continent = Continent::kEurope;
  series.windows[10].route(0).add_session(0.05, 0.5, 1000);
  series.windows[20].route(0).add_session(0.05, 0.5, 1000);
  std::string bytes = series_bytes(series);
  // Layout: u8 continent, u64 window count, then per window an i64 id.
  // Patch the second window id (10 -> 5) so ids are no longer ascending.
  const std::size_t first_window_size = (bytes.size() - 1 - 8) / 2;
  std::size_t second_id_at = 1 + 8 + first_window_size;
  bytes[second_id_at] = 5;
  GroupSeries target;
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_FALSE(load_group_series(r, target, nullptr));
}

TEST(SeriesIo, RejectsBadContinent) {
  std::string bytes = series_bytes(make_series(58));
  bytes[0] = 17;  // continent out of range
  GroupSeries target;
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_FALSE(load_group_series(r, target, nullptr));
}

// ---------------------------------------------------------------------------
// Blob summaries: summarize_group_series against load_group_series.
// ---------------------------------------------------------------------------

const double kZ = confidence_z(0.95);

/// Expects two summaries to match window by window, and cell by cell
/// bytewise (so NaN medians of empty digests compare too).
void expect_summaries_eq(const SeriesSummary& a, const SeriesSummary& b) {
  EXPECT_EQ(a.continent, b.continent);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const WindowSummary& wa = a.windows[i];
    const WindowSummary& wb = b.windows[i];
    EXPECT_EQ(wa.window, wb.window) << i;
    EXPECT_EQ(wa.traffic, wb.traffic) << i;
    ASSERT_EQ(wa.routes, wb.routes) << i;
    EXPECT_EQ(std::memcmp(a.routes(wa).data(), b.routes(wb).data(),
                          wa.routes * sizeof(CellSummary)),
              0)
        << "window " << wa.window;
  }
}

/// The blob summarizer's answer for `bytes`: whether it accepted them, and
/// the summary when it did.
bool summarize_blob(const std::string& bytes, SeriesSummary& out,
                    std::size_t len = std::string::npos) {
  ByteReader r(bytes.data(), std::min(len, bytes.size()));
  RouteWindowAgg cell;
  return summarize_group_series(r, kZ, cell, out);
}

bool load_and_summarize(const std::string& bytes, SeriesSummary& out,
                        std::size_t len = std::string::npos) {
  ByteReader r(bytes.data(), std::min(len, bytes.size()));
  GroupSeries series;
  if (!load_group_series(r, series, nullptr)) return false;
  summarize_series(series, kZ, out);
  return true;
}

TEST(SeriesSummary, BlobSummaryEqualsSummaryOfTheLoadedSeries) {
  GroupSeries empty;
  empty.continent = Continent::kOceania;
  std::vector<std::string> blobs = {series_bytes(empty)};
  for (const std::uint64_t seed : {55u, 56u, 57u, 58u, 59u}) {
    blobs.push_back(series_bytes(make_series(seed)));
  }
  bool saw_nan_p50 = false;
  for (const std::string& bytes : blobs) {
    SeriesSummary direct, loaded;
    ByteReader r(bytes.data(), bytes.size());
    RouteWindowAgg cell;
    cell.add_session(0.5, 0.5, 1);  // stale scratch state must not leak
    ASSERT_TRUE(summarize_group_series(r, kZ, cell, direct));
    EXPECT_EQ(r.remaining(), 0u);
    ASSERT_TRUE(load_and_summarize(bytes, loaded));
    expect_summaries_eq(direct, loaded);
    for (const CellSummary& c : direct.cells) {
      saw_nan_p50 = saw_nan_p50 || std::isnan(c.hdratio_p50());
    }
  }
  EXPECT_TRUE(saw_nan_p50) << "fixtures should include a cell without HDratio";
}

TEST(SeriesSummary, SummaryIsTheCellsOwnAnswers) {
  const GroupSeries series = make_series(61);
  SeriesSummary summary;
  summarize_series(series, kZ, summary);
  std::size_t i = 0;
  for (const auto& [w, agg] : series.windows) {
    const WindowSummary& ws = summary.windows[i++];
    EXPECT_EQ(ws.window, w);
    EXPECT_EQ(ws.traffic, agg.total_traffic());
    ASSERT_EQ(ws.routes, agg.routes.size());
    for (std::size_t r = 0; r < agg.routes.size(); ++r) {
      const RouteWindowAgg& cell = agg.routes[r];
      const CellSummary& s = summary.routes(ws)[r];
      EXPECT_EQ(s.sessions, cell.sessions());
      EXPECT_EQ(s.traffic, cell.traffic());
      EXPECT_EQ(s.hd_sessions(), cell.hd_sessions());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.minrtt_p50()),
                std::bit_cast<std::uint64_t>(cell.minrtt_p50()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.hdratio_p50()),
                std::bit_cast<std::uint64_t>(cell.hdratio_p50()));
    }
  }
}

TEST(SeriesSummary, RejectsExactlyWhatLoadRejects) {
  const std::string bytes = series_bytes(make_series(60));
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    SeriesSummary direct, loaded;
    const bool ok = summarize_blob(bytes, direct, len);
    ASSERT_EQ(ok, load_and_summarize(bytes, loaded, len)) << "prefix " << len;
    EXPECT_EQ(ok, len == bytes.size()) << "prefix " << len;
    if (!ok) EXPECT_TRUE(direct.windows.empty() && direct.cells.empty());
  }
  Rng rng(2000);
  int rejected = 0;
  for (int flip = 0; flip < 2000; ++flip) {
    std::string bad = bytes;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bad[at] = static_cast<char>(bad[at] ^ static_cast<char>(rng.uniform_int(1, 255)));
    SeriesSummary direct, loaded;
    const bool ok = summarize_blob(bad, direct);
    ASSERT_EQ(ok, load_and_summarize(bad, loaded))
        << "flip " << flip << " at byte " << at;
    if (ok) {
      expect_summaries_eq(direct, loaded);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

/// A two-window series (ids 10 and 20) whose second id is overwritten with
/// `id` as a raw 64-bit value.
std::string two_windows_with_second_id(std::int64_t id) {
  GroupSeries series;
  series.continent = Continent::kEurope;
  for (int i = 0; i < 40; ++i) {
    series.windows[10].route(0).add_session(0.05 + i * 1e-4, 0.5, 1000);
    series.windows[20].route(0).add_session(0.07 + i * 1e-4, 0.4, 2000);
    series.windows[20].route(1).add_session(0.03 + i * 1e-4, 0.9, 3000);
  }
  std::string bytes = series_bytes(series);
  // Layout: u8 continent, u64 window count, then per window an i64 id, a
  // u32 route count and the cells.
  const std::size_t first_window_size =
      8 + 4 + series.windows.at(10).routes[0].saved_size();
  const std::size_t second_id_at = 1 + 8 + first_window_size;
  for (int b = 0; b < 8; ++b) {
    bytes[second_id_at + static_cast<std::size_t>(b)] =
        static_cast<char>(static_cast<std::uint64_t>(id) >> (8 * b));
  }
  return bytes;
}

TEST(SeriesSummary, WindowIdsOrderAndCollideAsInLoad) {
  // 5 (non-ascending) is rejected by the shared parser.
  SeriesSummary direct, loaded;
  EXPECT_FALSE(summarize_blob(two_windows_with_second_id(5), direct));
  EXPECT_FALSE(load_and_summarize(two_windows_with_second_id(5), loaded));
  // 2^32 + 5 ascends as a 64-bit id but files under int id 5, before
  // window 10: both readers accept, with the windows in int order.
  const std::string below = two_windows_with_second_id((std::int64_t{1} << 32) + 5);
  ASSERT_TRUE(summarize_blob(below, direct));
  ASSERT_TRUE(load_and_summarize(below, loaded));
  expect_summaries_eq(direct, loaded);
  ASSERT_EQ(direct.windows.size(), 2u);
  EXPECT_EQ(direct.windows[0].window, 5);
  EXPECT_EQ(direct.windows[0].routes, 2u);
  // 2^32 + 10 files under id 10, which is taken: both readers reject.
  const std::string collide = two_windows_with_second_id((std::int64_t{1} << 32) + 10);
  EXPECT_FALSE(summarize_blob(collide, direct));
  EXPECT_FALSE(load_and_summarize(collide, loaded));
  EXPECT_TRUE(direct.windows.empty());
}

// ---------------------------------------------------------------------------
// Artifact file format.
// ---------------------------------------------------------------------------

std::string artifact_dir(const char* name) {
  return ::testing::TempDir() + "fbedge_series_io_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites the footer of an artifact image with N blobs so that it
/// vouches for whatever header and index bytes `bytes` now holds.
void reseal_footer(std::string& bytes, std::size_t blobs) {
  const std::size_t index_at = bytes.size() - 8 - 16 * blobs;
  const std::string meta = bytes.substr(0, 28) + bytes.substr(index_at, 16 * blobs);
  const std::uint64_t footer = xxh64(meta.data(), meta.size());
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>(footer >> (8 * i));
  }
}

TEST(ArtifactIo, RoundTripAndKeyChecks) {
  const std::string dir = artifact_dir("roundtrip");
  const std::uint64_t key = 0xabcdef0123456789ULL;
  const std::vector<std::string> blobs = {"alpha", "", "gamma-gamma"};
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, blobs));

  IngestArtifact artifact;
  ASSERT_TRUE(read_ingest_artifact(path, key, blobs.size(), artifact));
  ASSERT_EQ(artifact.blobs.size(), blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const auto [offset, length] = artifact.blobs[i];
    EXPECT_EQ(artifact.bytes.substr(offset, length), blobs[i]);
  }
  // kAnyGroupCount accepts whatever count the artifact declares.
  EXPECT_TRUE(read_ingest_artifact(path, key, kAnyGroupCount, artifact));
  // Wrong expectations must read as a miss.
  EXPECT_FALSE(read_ingest_artifact(path, key, blobs.size() + 1, artifact));
  EXPECT_FALSE(read_ingest_artifact(path, key ^ 1, blobs.size(), artifact));
  EXPECT_FALSE(read_ingest_artifact(path + ".nope", key, blobs.size(), artifact));
}

TEST(ArtifactIo, RejectsBitFlipsAnywhere) {
  const std::string dir = artifact_dir("bitflip");
  const std::uint64_t key = 42;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"payload-one", "payload-two"}));
  const std::string good = slurp(path);

  for (std::size_t i = 0; i < good.size(); i += 5) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    spit(path, bad);
    IngestArtifact artifact;
    EXPECT_FALSE(read_ingest_artifact(path, key, 2, artifact))
        << "flip at byte " << i;
  }
  spit(path, good);
  IngestArtifact artifact;
  EXPECT_TRUE(read_ingest_artifact(path, key, 2, artifact));
}

TEST(ArtifactIo, RejectsTruncation) {
  const std::string dir = artifact_dir("truncate");
  const std::uint64_t key = 43;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"some-blob-content"}));
  const std::string good = slurp(path);
  for (std::size_t len = 0; len < good.size(); len += 7) {
    spit(path, good.substr(0, len));
    IngestArtifact artifact;
    EXPECT_FALSE(read_ingest_artifact(path, key, 1, artifact)) << "len " << len;
  }
}

TEST(ArtifactIo, RejectsWrongEpochEvenWithValidChecksum) {
  const std::string dir = artifact_dir("epoch");
  const std::uint64_t key = 44;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"blob"}));
  std::string bytes = slurp(path);
  // Layout: 28-byte header | "blob" | index (u64 length, u64 XXH64) |
  // footer. Epoch is the u32 at offset 8 (after the 8-byte magic). Bump it
  // and recompute the footer — XXH64 of header and index — so only the
  // epoch test can reject.
  ASSERT_EQ(bytes.size(), 28u + 4 + 16 + 8);
  bytes[8] = static_cast<char>(bytes[8] + 1);
  reseal_footer(bytes, 1);
  spit(path, bytes);
  IngestArtifact artifact;
  EXPECT_FALSE(read_ingest_artifact(path, key, 1, artifact));
}

TEST(ArtifactIo, RejectsIndexThatDoesNotTileTheFile) {
  const std::string dir = artifact_dir("tiling");
  const std::uint64_t key = 48;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"first", "second"}));
  const std::string good = slurp(path);
  const std::size_t index_at = good.size() - 8 - 32;

  // A stray byte between the blobs and the index: header, index, footer
  // and both blob checksums still match, but the file is one byte longer
  // than the index accounts for.
  std::string padded = good;
  padded.insert(index_at, 1, 'x');
  spit(path, padded);
  IngestArtifact artifact;
  EXPECT_FALSE(read_ingest_artifact(path, key, 2, artifact));

  // Lengths whose sum wraps around to exactly the blob region (11 bytes):
  // each length must be bounded before it is added.
  std::string wrapped = good;
  const std::uint64_t lengths[2] = {~std::uint64_t{0} - 4, 11 + 5};
  for (std::size_t b = 0; b < 2; ++b) {
    for (int i = 0; i < 8; ++i) {
      wrapped[index_at + 16 * b + static_cast<std::size_t>(i)] =
          static_cast<char>(lengths[b] >> (8 * i));
    }
  }
  reseal_footer(wrapped, 2);
  spit(path, wrapped);
  EXPECT_FALSE(read_ingest_artifact(path, key, 2, artifact));

  spit(path, good);
  EXPECT_TRUE(read_ingest_artifact(path, key, 2, artifact));
}

/// Flips one byte of the file at `offset` in place (same size, same inode).
void flip_byte_in_place(const std::string& path, std::size_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_NE(std::fputc(byte ^ 0x40, f), EOF);
  std::fclose(f);
}

TEST(ArtifactIo, ConcurrentReadsReturnExactBlobs) {
  const std::string dir = artifact_dir("concurrent");
  const std::uint64_t key = 45;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  std::vector<std::string> blobs;
  for (int g = 0; g < 24; ++g) {
    blobs.push_back(std::string(static_cast<std::size_t>(g) * 997 % 5003,
                                static_cast<char>('a' + g)));
  }
  ASSERT_TRUE(write_ingest_artifact(path, key, blobs));

  IngestArtifactReader reader;
  ASSERT_TRUE(reader.open(path, key, blobs.size()));
  // Four threads, each walking the blobs in its own order, each with its
  // own buffer: every read returns exactly its blob.
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::string blob;
      for (int round = 0; round < 8; ++round) {
        for (std::size_t k = 0; k < blobs.size(); ++k) {
          const std::size_t g = (k * (2 * t + 1) + round) % blobs.size();
          if (!reader.read(g, blob) || blob != blobs[g]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(ArtifactIo, ByteFlippedAfterOpenFailsOnlyThatBlob) {
  const std::string dir = artifact_dir("flip-after-open");
  const std::uint64_t key = 46;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  const std::vector<std::string> blobs = {"first-blob", "second-blob", "third"};
  ASSERT_TRUE(write_ingest_artifact(path, key, blobs));

  IngestArtifactReader reader;
  ASSERT_TRUE(reader.open(path, key, blobs.size()));
  // Blob 1 starts after the 28-byte header and blob 0.
  flip_byte_in_place(path, 28 + blobs[0].size() + 3);
  std::string blob;
  ASSERT_TRUE(reader.read(0, blob));
  EXPECT_EQ(blob, blobs[0]);
  EXPECT_FALSE(reader.read(1, blob));
  EXPECT_TRUE(blob.empty());
  ASSERT_TRUE(reader.read(2, blob));
  EXPECT_EQ(blob, blobs[2]);
  // A fresh open sees the corruption in its verify pass.
  IngestArtifactReader again;
  EXPECT_FALSE(again.open(path, key, blobs.size()));
}

TEST(ArtifactIo, IndexOnlyOpenDefersBlobChecksToRead) {
  const std::string dir = artifact_dir("index-only");
  const std::uint64_t key = 49;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  const std::vector<std::string> blobs = {"first-blob", "second-blob", "third"};
  ASSERT_TRUE(write_ingest_artifact(path, key, blobs));
  const std::size_t blob_bytes = blobs[0].size() + blobs[1].size() + blobs[2].size();

  IngestArtifactReader clean;
  ASSERT_TRUE(clean.open(path, key, blobs.size()));
  EXPECT_EQ(clean.bytes_read(), blob_bytes);  // the eager pass

  // Blob 1 corrupted at rest, before any open.
  flip_byte_in_place(path, 28 + blobs[0].size() + 3);
  IngestArtifactReader reader;
  ASSERT_TRUE(reader.open_index(path, key, blobs.size()));
  EXPECT_EQ(reader.groups(), blobs.size());
  EXPECT_EQ(reader.bytes_read(), 0u);  // no blob byte read yet
  std::string blob;
  ASSERT_TRUE(reader.read(0, blob));
  EXPECT_EQ(blob, blobs[0]);
  EXPECT_FALSE(reader.read(1, blob));
  EXPECT_TRUE(blob.empty());
  ASSERT_TRUE(reader.read(2, blob));
  EXPECT_EQ(blob, blobs[2]);
  EXPECT_EQ(reader.bytes_read(), blob_bytes);  // the failed blob counts too
  // open()'s pass finds the corruption.
  IngestArtifactReader eager;
  EXPECT_FALSE(eager.open(path, key, blobs.size()));
  EXPECT_EQ(eager.groups(), 0u);
}

TEST(ArtifactIo, IndexOnlyOpenRejectsBadFraming) {
  const std::string dir = artifact_dir("index-framing");
  const std::uint64_t key = 50;
  const std::string path = ingest_artifact_path(dir, key);
  const auto both_opens_fail = [&](const std::string& image, const char* what) {
    spit(path, image);
    IngestArtifactReader reader;
    EXPECT_FALSE(reader.open_index(path, key, 2)) << what;
    EXPECT_EQ(reader.groups(), 0u) << what;
    EXPECT_FALSE(reader.open(path, key, 2)) << what;
  };
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"first", "second"}));
  const std::string good = slurp(path);
  const std::size_t index_at = good.size() - 8 - 32;

  for (std::size_t len = 0; len < good.size(); ++len) {
    both_opens_fail(good.substr(0, len), "truncated");
  }

  std::string epoch = good;
  epoch[8] = static_cast<char>(epoch[8] + 1);
  reseal_footer(epoch, 2);
  both_opens_fail(epoch, "wrong epoch, resealed footer");

  std::string padded = good;
  padded.insert(index_at, 1, 'x');
  both_opens_fail(padded, "stray byte before the index");

  std::string wrapped = good;
  const std::uint64_t lengths[2] = {~std::uint64_t{0} - 4, 11 + 5};
  for (std::size_t b = 0; b < 2; ++b) {
    for (int i = 0; i < 8; ++i) {
      wrapped[index_at + 16 * b + static_cast<std::size_t>(i)] =
          static_cast<char>(lengths[b] >> (8 * i));
    }
  }
  reseal_footer(wrapped, 2);
  both_opens_fail(wrapped, "lengths that wrap to the blob region");

  spit(path, good);
  IngestArtifactReader reader;
  EXPECT_TRUE(reader.open_index(path, key, 2));
  EXPECT_FALSE(reader.open_index(path, key, 3));  // wrong count
  EXPECT_FALSE(reader.open_index(path, key ^ 1, 2));  // wrong key
}

// ---------------------------------------------------------------------------
// End-to-end: warm == cold through run_edge_analysis, plus fallback.
// ---------------------------------------------------------------------------

void expect_results_eq(const EdgeAnalysisResult& a, const EdgeAnalysisResult& b) {
  EXPECT_EQ(a.groups_analyzed, b.groups_analyzed);
  EXPECT_EQ(a.total_traffic, b.total_traffic);
  EXPECT_EQ(a.degr_valid_traffic_rtt, b.degr_valid_traffic_rtt);
  EXPECT_EQ(a.degr_valid_traffic_hd, b.degr_valid_traffic_hd);
  EXPECT_EQ(a.opp_valid_traffic_rtt, b.opp_valid_traffic_rtt);
  EXPECT_EQ(a.opp_valid_traffic_hd, b.opp_valid_traffic_hd);
  EXPECT_EQ(a.rtt_within_3ms, b.rtt_within_3ms);
  EXPECT_EQ(a.hd_within_0025, b.hd_within_0025);
  EXPECT_EQ(a.rtt_improvable_5ms, b.rtt_improvable_5ms);
  EXPECT_EQ(a.hd_improvable_005, b.hd_improvable_005);

  auto cdf_eq = [](const WeightedCdf& x, const WeightedCdf& y) {
    WeightedCdf cx = x, cy = y;
    ASSERT_EQ(cx.size(), cy.size());
    if (cx.empty()) return;
    for (const double q : {0.1, 0.5, 0.9}) {
      EXPECT_EQ(cx.quantile(q), cy.quantile(q)) << "q=" << q;
    }
  };
  cdf_eq(a.degr_rtt, b.degr_rtt);
  cdf_eq(a.degr_hd, b.degr_hd);
  cdf_eq(a.opp_rtt, b.opp_rtt);
  cdf_eq(a.opp_hd, b.opp_hd);
  cdf_eq(a.fig10_peer_vs_transit, b.fig10_peer_vs_transit);

  ASSERT_EQ(a.table1.size(), b.table1.size());
  auto ia = a.table1.begin();
  auto ib = b.table1.begin();
  for (; ia != a.table1.end(); ++ia, ++ib) {
    EXPECT_TRUE(ia->first == ib->first);
    EXPECT_EQ(ia->second.group_traffic, ib->second.group_traffic);
    EXPECT_EQ(ia->second.event_traffic, ib->second.event_traffic);
  }
  EXPECT_EQ(a.table2_rtt.size(), b.table2_rtt.size());
  EXPECT_EQ(a.table2_hd.size(), b.table2_hd.size());
}

class IngestCacheEndToEnd : public ::testing::Test {
 protected:
  static World world() {
    WorldConfig wc;
    wc.seed = 2019;
    wc.groups_per_continent = 2;
    wc.days = 1;
    return build_world(wc);
  }
  static DatasetConfig dataset() {
    DatasetConfig dc;
    dc.seed = 2019;
    dc.days = 1;
    dc.session_scale = 0.1;
    return dc;
  }
};

TEST_F(IngestCacheEndToEnd, WarmRunIsIdenticalAtAnyThreadCount) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const IngestCacheOptions cache{artifact_dir("warm")};
  std::remove(ingest_artifact_path(cache.dir, ingest_cache_key(w, dc, {})).c_str());

  RunStats cold_stats;
  const auto cold = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), &cold_stats,
                                      {}, cache);
  EXPECT_EQ(cold_stats.cache_hits, 0u);
  EXPECT_EQ(cold_stats.cache_misses, w.groups.size());

  const auto uncached =
      run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions::sequential());
  expect_results_eq(uncached, cold);  // writing the cache must not perturb

  for (const int threads : {1, 3}) {
    RunStats warm_stats;
    const auto warm = run_edge_analysis(w, dc, {}, {}, {},
                                        RuntimeOptions{threads}, &warm_stats,
                                        {}, cache);
    expect_results_eq(cold, warm);
    EXPECT_EQ(warm_stats.cache_hits, w.groups.size()) << threads;
    EXPECT_EQ(warm_stats.cache_misses, 0u);
  }
}

TEST_F(IngestCacheEndToEnd, CorruptArtifactFallsBackToColdIngest) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const IngestCacheOptions cache{artifact_dir("fallback")};
  const std::string path =
      ingest_artifact_path(cache.dir, ingest_cache_key(w, dc, {}));
  std::remove(path.c_str());

  const auto cold = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), nullptr, {},
                                      cache);
  std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(path, bytes);

  RunStats stats;
  const auto again = run_edge_analysis(w, dc, {}, {}, {},
                                       RuntimeOptions::sequential(), &stats, {},
                                       cache);
  expect_results_eq(cold, again);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, w.groups.size());

  // The fallback run rewrote a good artifact; the next run is warm again.
  RunStats warm_stats;
  const auto warm = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), &warm_stats,
                                      {}, cache);
  expect_results_eq(cold, warm);
  EXPECT_EQ(warm_stats.cache_hits, w.groups.size());
}

/// (offset, length) of blob `i` in an artifact image with `n` blobs, from
/// its index.
std::pair<std::size_t, std::size_t> blob_span(const std::string& image,
                                              std::size_t n, std::size_t i) {
  const std::size_t index_at = image.size() - 8 - 16 * n;
  std::size_t offset = 28;
  std::size_t length = 0;
  for (std::size_t b = 0; b <= i; ++b) {
    offset += length;
    ByteReader r(image.data() + index_at + 16 * b, 8);
    length = static_cast<std::size_t>(r.u64());
  }
  return {offset, length};
}

TEST_F(IngestCacheEndToEnd, WarmRunReadsEachBlobOnce) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const std::size_t n = w.groups.size();
  const IngestCacheOptions cache{artifact_dir("read-once")};
  const std::string path =
      ingest_artifact_path(cache.dir, ingest_cache_key(w, dc, {}));
  std::remove(path.c_str());
  RunStats cold_stats;
  run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions::sequential(), &cold_stats,
                    {}, cache);
  EXPECT_EQ(cold_stats.cache_read_bytes, 0u);  // nothing to read yet
  const std::size_t file_size = slurp(path).size();
  for (const int threads : {1, 3}) {
    RunStats stats;
    run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions{threads}, &stats, {},
                      cache);
    EXPECT_EQ(stats.cache_hits, n) << threads;
    EXPECT_EQ(stats.cache_read_bytes, file_size - 28 - 16 * n - 8) << threads;
  }
}

TEST_F(IngestCacheEndToEnd, BlobCorruptAtRestRerunsColdAndRewrites) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const std::size_t n = w.groups.size();
  const IngestCacheOptions cache{artifact_dir("blob-at-rest")};
  const std::string path =
      ingest_artifact_path(cache.dir, ingest_cache_key(w, dc, {}));
  const auto cold_run = [&] {
    std::remove(path.c_str());
    return run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions::sequential(),
                             nullptr, {}, cache);
  };
  const EdgeAnalysisResult cold = cold_run();

  // The header, index and footer stay intact, so the index-only open
  // succeeds and the bad blob is found only when its task reads it.
  for (const std::size_t victim : {std::size_t{0}, n - 1}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(::testing::Message() << "blob " << victim << " threads " << threads);
      cold_run();
      const auto [offset, length] = blob_span(slurp(path), n, victim);
      ASSERT_GT(length, 0u);
      flip_byte_in_place(path, offset + length / 2);

      RunStats stats;
      const auto out = run_edge_analysis(w, dc, {}, {}, {},
                                         RuntimeOptions{threads}, &stats, {},
                                         cache);
      expect_results_eq(cold, out);
      EXPECT_EQ(stats.cache_hits, 0u);
      EXPECT_EQ(stats.cache_misses, n);
      EXPECT_EQ(stats.cache_write_failures, 0u);

      // The same run rewrote the artifact: the next one is served whole.
      RunStats again;
      expect_results_eq(cold, run_edge_analysis(w, dc, {}, {}, {},
                                                RuntimeOptions{threads}, &again,
                                                {}, cache));
      EXPECT_EQ(again.cache_hits, n);
      EXPECT_EQ(again.cache_misses, 0u);
    }
  }
}

TEST_F(IngestCacheEndToEnd, ReaderReduceMatchesBlobFnReduce) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const std::size_t n = w.groups.size();
  std::vector<std::string> blobs(n);
  std::vector<std::size_t> groups(n);
  for (std::size_t g = 0; g < n; ++g) groups[g] = g;
  ingest_groups_to_blobs(w, dc, {}, groups, RuntimeOptions::sequential(),
                         [&](std::size_t g, std::string&& blob) {
                           blobs[g] = std::move(blob);
                         });
  const std::uint64_t key = 47;
  const std::string path = ingest_artifact_path(artifact_dir("reader-reduce"), key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, blobs));

  EdgeReducer from_memory(w, dc, {}, {}, {});
  from_memory.reduce_range(
      ShardRange{0, n},
      [&](std::size_t g) { return GroupBlobRef{blobs[g].data(), blobs[g].size()}; },
      RuntimeOptions::sequential());
  ASSERT_EQ(from_memory.blob_groups(), n);
  const EdgeAnalysisResult want = from_memory.finish();

  IngestArtifactReader reader;
  ASSERT_TRUE(reader.open(path, key, n));
  for (const int threads : {1, 3}) {
    EdgeReducer from_reader(w, dc, {}, {}, {});
    from_reader.reduce_range(ShardRange{0, n}, reader, RuntimeOptions{threads});
    EXPECT_EQ(from_reader.blob_groups(), n) << threads;
    expect_results_eq(want, from_reader.finish());
  }

  // One blob corrupted on disk after open(): that group alone cold-ingests,
  // and the result is unchanged.
  std::size_t blob3_offset = 28;
  for (std::size_t g = 0; g < 3; ++g) blob3_offset += blobs[g].size();
  flip_byte_in_place(path, blob3_offset + blobs[3].size() / 2);
  for (const int threads : {1, 3}) {
    EdgeReducer degraded(w, dc, {}, {}, {});
    degraded.reduce_range(ShardRange{0, n}, reader, RuntimeOptions{threads});
    EXPECT_EQ(degraded.blob_groups(), n - 1) << threads;
    expect_results_eq(want, degraded.finish());
  }
}

TEST_F(IngestCacheEndToEnd, NestedMissingCacheDirIsCreated) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const std::string root = artifact_dir("nested");
  std::filesystem::remove_all(root);
  const IngestCacheOptions cache{root + "/x/nested/cache"};

  RunStats cold_stats;
  const auto cold = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), &cold_stats,
                                      {}, cache);
  EXPECT_EQ(cold_stats.cache_misses, w.groups.size());
  EXPECT_EQ(cold_stats.cache_write_failures, 0u);

  RunStats warm_stats;
  const auto warm = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), &warm_stats,
                                      {}, cache);
  expect_results_eq(cold, warm);
  EXPECT_EQ(warm_stats.cache_hits, w.groups.size());
  EXPECT_EQ(warm_stats.cache_misses, 0u);
}

TEST_F(IngestCacheEndToEnd, UnwritableCacheDirCountsWriteFailure) {
  const World w = world();
  const DatasetConfig dc = dataset();
  // A regular file where a directory level should be: no artifact can be
  // written beneath it.
  const std::string blocker = artifact_dir("blocker");
  std::filesystem::remove_all(blocker);
  spit(blocker, "not a directory");
  const IngestCacheOptions cache{blocker + "/cache"};

  const auto uncached =
      run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions::sequential());
  for (int run = 0; run < 2; ++run) {
    RunStats stats;
    const auto out = run_edge_analysis(w, dc, {}, {}, {},
                                       RuntimeOptions::sequential(), &stats, {},
                                       cache);
    expect_results_eq(uncached, out);
    EXPECT_EQ(stats.cache_write_failures, 1u) << "run " << run;
    EXPECT_EQ(stats.cache_hits, 0u) << "run " << run;
    EXPECT_EQ(stats.cache_misses, w.groups.size()) << "run " << run;
  }
  std::filesystem::remove(blocker);
}

TEST_F(IngestCacheEndToEnd, WarmRunBuildsNoPerCellState) {
  // Two days, so the classifier's diurnal pass sees more than one day.
  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.days = 2;
  const World w = build_world(wc);
  DatasetConfig dc = dataset();
  dc.days = 2;
  const std::size_t n = w.groups.size();
  const IngestCacheOptions cache{artifact_dir("no-cell-state")};
  const std::uint64_t key = ingest_cache_key(w, dc, {});
  const std::string path = ingest_artifact_path(cache.dir, key);
  std::remove(path.c_str());
  const auto cold = run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions::sequential(),
                                      nullptr, {}, cache);

  // The artifact's (window, route) cells.
  IngestArtifact artifact;
  ASSERT_TRUE(read_ingest_artifact(path, key, n, artifact));
  std::uint64_t cells = 0;
  for (const auto& [offset, length] : artifact.blobs) {
    ByteReader r(artifact.bytes.data() + offset, length);
    GroupSeries series;
    ASSERT_TRUE(load_group_series(r, series, nullptr));
    for (const auto& [window, agg] : series.windows) cells += agg.routes.size();
  }
  ASSERT_GT(cells, 1000u);

  for (const int threads : {1, 3}) {
    RunStats stats;
    const auto warm = run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions{threads},
                                        &stats, {}, cache);
    expect_results_eq(cold, warm);
    EXPECT_EQ(stats.cache_hits, n) << threads;
    // Each cell is read into one per-worker scratch cell and summarized:
    // the warm pass allocates per worker and per group, never per cell.
    EXPECT_LT(stats.alloc_count, cells) << threads << " threads";
  }
}

TEST_F(IngestCacheEndToEnd, KeySeparatesConfigs) {
  const World w = world();
  DatasetConfig dc = dataset();
  const std::uint64_t base = ingest_cache_key(w, dc, {});
  DatasetConfig changed = dc;
  changed.seed = 2020;
  EXPECT_NE(ingest_cache_key(w, changed, {}), base);
  changed = dc;
  changed.session_scale = 0.2;
  EXPECT_NE(ingest_cache_key(w, changed, {}), base);
  GoodputConfig goodput;
  goodput.target_goodput = goodput.target_goodput * 2;
  EXPECT_NE(ingest_cache_key(w, dc, goodput), base);

  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.days = 1;
  wc.episodic_fraction = 0.9;
  EXPECT_NE(ingest_cache_key(build_world(wc), dc, {}), base);
}

}  // namespace
}  // namespace fbedge
