// Tests for the stream monitor's rolling baseline and sample serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "agg/cell_summary.h"
#include "agg/window_verdict.h"
#include "sampler/io.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace fbedge {
namespace {

const ComparisonConfig kComparison{};
const VerdictPolicy kPolicy{};

/// One window's preferred-route cell: `n` sessions around `rtt` and `hd`,
/// summarized at the comparison's confidence level.
CellSummary make_window(Duration rtt, double hd, std::uint64_t seed, int n = 80) {
  RouteWindowAgg agg;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    agg.add_session(std::max(0.001, rtt + rng.normal(0, 0.002)),
                    std::clamp(hd + rng.normal(0, 0.05), 0.0, 1.0), 1000);
  }
  return summarize_cell(agg, confidence_z(kComparison.alpha));
}

/// The stream monitor's baseline shape: its sample floor comes from the
/// comparison config.
RollingBaseline make_baseline(int history_windows = RollingBaselineConfig{}.history_windows) {
  RollingBaselineConfig config;
  config.history_windows = history_windows;
  config.min_samples = kComparison.min_samples;
  return RollingBaseline(config);
}

/// Seals window `w` whose only route is `cell` through the shared verdict
/// step, which also folds the cell into `baseline`.
WindowVerdict close_window(RollingBaseline& baseline, int w, const CellSummary& cell) {
  WindowVerdict verdict;
  evaluate_window_verdict(w, std::span<const CellSummary>(&cell, 1), baseline,
                          kComparison, verdict);
  return verdict;
}

bool rtt_flagged(const WindowVerdict& v) {
  return v.degr.rtt.exceeds(kPolicy.degradation_rtt);
}
bool hd_flagged(const WindowVerdict& v) { return v.degr.hd.exceeds(kPolicy.degradation_hd); }
bool flagged(const WindowVerdict& v) { return rtt_flagged(v) || hd_flagged(v); }

// ---------------------------------------------------------------------------
// Rolling baseline behind the stream verdicts.
// ---------------------------------------------------------------------------

TEST(RollingBaseline, NoVerdictDuringWarmup) {
  RollingBaseline baseline = make_baseline();
  int flags = 0;
  for (int w = 0; w < 5; ++w) {
    const WindowVerdict v = close_window(baseline, w, make_window(0.040, 0.9, w));
    EXPECT_EQ(v.degr.rtt.validity, Validity::kMissing) << w;
    EXPECT_EQ(v.degr.hd.validity, Validity::kMissing) << w;
    flags += flagged(v) ? 1 : 0;
  }
  EXPECT_EQ(flags, 0);
  EXPECT_EQ(baseline.baseline_rtt(), nullptr);
}

TEST(RollingBaseline, RttStepFlagsRttOnly) {
  RollingBaseline baseline = make_baseline();
  int flags = 0;
  for (int w = 0; w < 20; ++w) {
    flags += flagged(close_window(baseline, w, make_window(0.040, 0.9, w))) ? 1 : 0;
  }
  ASSERT_NE(baseline.baseline_rtt(), nullptr);
  EXPECT_NEAR(baseline.baseline_rtt()->minrtt_p50(), 0.040, 0.003);
  EXPECT_EQ(flags, 0) << "steady state must be quiet";

  const WindowVerdict v = close_window(baseline, 20, make_window(0.060, 0.9, 20));
  EXPECT_EQ(v.window, 20);
  ASSERT_TRUE(rtt_flagged(v));
  EXPECT_GT(v.degr.rtt.diff.lower, 0.005);
  EXPECT_FALSE(hd_flagged(v));
}

TEST(RollingBaseline, HdDropFlagsHdOnly) {
  RollingBaseline baseline = make_baseline();
  int flags = 0;
  for (int w = 0; w < 20; ++w) {
    flags += flagged(close_window(baseline, w, make_window(0.040, 0.9, w))) ? 1 : 0;
  }
  EXPECT_EQ(flags, 0);
  const WindowVerdict v = close_window(baseline, 20, make_window(0.040, 0.4, 20));
  EXPECT_TRUE(hd_flagged(v));
  EXPECT_FALSE(rtt_flagged(v));
}

TEST(RollingBaseline, HistoryBounded) {
  RollingBaseline baseline = make_baseline(10);
  for (int w = 0; w < 50; ++w) close_window(baseline, w, make_window(0.040, 0.9, w));
  EXPECT_EQ(baseline.history_size(), 10);
}

TEST(RollingBaseline, PersistentShiftBecomesNewBaseline) {
  RollingBaseline baseline = make_baseline(12);
  int flags = 0;
  for (int w = 0; w < 20; ++w) {
    flags += flagged(close_window(baseline, w, make_window(0.040, 0.9, w))) ? 1 : 0;
  }
  // A step change is flagged while old windows linger in the history...
  for (int w = 20; w < 40; ++w) {
    flags += flagged(close_window(baseline, w, make_window(0.060, 0.9, w))) ? 1 : 0;
  }
  EXPECT_GT(flags, 0);
  const int flags_during_rollover = flags;
  // ...but once the 12-window history is all post-step, 60 ms is the new
  // normal and the flags stop.
  ASSERT_NE(baseline.baseline_rtt(), nullptr);
  EXPECT_NEAR(baseline.baseline_rtt()->minrtt_p50(), 0.060, 0.003);
  for (int w = 40; w < 60; ++w) {
    flags += flagged(close_window(baseline, w, make_window(0.060, 0.9, w))) ? 1 : 0;
  }
  EXPECT_EQ(flags, flags_during_rollover) << "no flags once re-baselined";
}

TEST(RollingBaseline, SparseWindowsNeverFormABaseline) {
  RollingBaseline baseline = make_baseline();
  RouteWindowAgg tiny;
  tiny.add_session(0.040, 0.9, 100);
  const CellSummary cell = summarize_cell(tiny, confidence_z(kComparison.alpha));
  for (int w = 0; w < 30; ++w) close_window(baseline, w, cell);
  EXPECT_EQ(baseline.baseline_rtt(), nullptr)
      << "windows below the sample floor cannot form a baseline";
}

// ---------------------------------------------------------------------------
// Sample serialization.
// ---------------------------------------------------------------------------

SessionSample example_sample() {
  SessionSample s;
  s.id = SessionId{123456789ull};
  s.pop = PopId{7};
  s.client.ip = 0x0a0102ff;
  s.client.bgp_prefix = {0x0a010000, 17};
  s.client.asn = Asn{64512};
  s.client.country = CountryId{301};
  s.client.continent = Continent::kSouthAmerica;
  s.client.hosting_provider = true;
  s.version = HttpVersion::kHttp2;
  s.endpoint = EndpointClass::kMedia;
  s.established_at = 12345.625;
  s.duration = 78.5;
  s.busy_time = 3.25;
  s.total_bytes = 987654;
  s.route_index = 2;
  s.min_rtt = 0.0425;
  s.num_transactions = 2;
  ResponseWrite w1;
  w1.first_byte_nic = 0.5;
  w1.last_byte_nic = 0.51;
  w1.second_last_ack = 0.58;
  w1.last_ack = 0.6;
  w1.bytes = 20000;
  w1.last_packet_bytes = 1280;
  w1.wnic = 14400;
  w1.multiplexed = true;
  s.writes.push_back(w1);
  ResponseWrite w2 = w1;
  w2.preempted = true;
  w2.multiplexed = false;
  s.writes.push_back(w2);
  return s;
}

TEST(SampleIo, RoundTripsEveryField) {
  const SessionSample original = example_sample();
  const auto parsed = parse_sample(serialize_sample(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, original.id);
  EXPECT_EQ(parsed->pop, original.pop);
  EXPECT_EQ(parsed->client.ip, original.client.ip);
  EXPECT_EQ(parsed->client.bgp_prefix, original.client.bgp_prefix);
  EXPECT_EQ(parsed->client.asn, original.client.asn);
  EXPECT_EQ(parsed->client.country, original.client.country);
  EXPECT_EQ(parsed->client.continent, original.client.continent);
  EXPECT_EQ(parsed->client.hosting_provider, original.client.hosting_provider);
  EXPECT_EQ(parsed->version, original.version);
  EXPECT_EQ(parsed->endpoint, original.endpoint);
  EXPECT_DOUBLE_EQ(parsed->established_at, original.established_at);
  EXPECT_DOUBLE_EQ(parsed->duration, original.duration);
  EXPECT_DOUBLE_EQ(parsed->busy_time, original.busy_time);
  EXPECT_EQ(parsed->total_bytes, original.total_bytes);
  EXPECT_EQ(parsed->route_index, original.route_index);
  EXPECT_DOUBLE_EQ(parsed->min_rtt, original.min_rtt);
  EXPECT_EQ(parsed->num_transactions, original.num_transactions);
  ASSERT_EQ(parsed->writes.size(), 2u);
  EXPECT_EQ(parsed->writes[0].bytes, 20000);
  EXPECT_TRUE(parsed->writes[0].multiplexed);
  EXPECT_TRUE(parsed->writes[1].preempted);
}

TEST(SampleIo, RejectsMalformedLines) {
  EXPECT_FALSE(parse_sample("").has_value());
  EXPECT_FALSE(parse_sample("1\t2\t3").has_value());
  auto line = serialize_sample(example_sample());
  line += "\textra";  // breaks the per-write field arithmetic
  EXPECT_FALSE(parse_sample(line).has_value());
  // Non-numeric garbage in a numeric field.
  auto bad = serialize_sample(example_sample());
  bad.replace(0, 3, "abc");
  EXPECT_FALSE(parse_sample(bad).has_value());
}

TEST(SampleIo, StreamRoundTripWithGeneratedTraffic) {
  const World world = build_world({.seed = 31, .groups_per_continent = 1});
  DatasetConfig dc;
  dc.seed = 31;
  dc.days = 1;
  dc.session_scale = 0.02;
  DatasetGenerator generator(world, dc);
  std::vector<SessionSample> samples;
  generator.generate_group(world.groups[0],
                           [&](const SessionSample& s) { samples.push_back(s); });
  ASSERT_GT(samples.size(), 50u);

  std::stringstream stream;
  write_samples(stream, samples);
  const auto result = read_samples(stream);
  EXPECT_EQ(result.malformed, 0);
  ASSERT_EQ(result.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(result.samples[i].id, samples[i].id);
    EXPECT_DOUBLE_EQ(result.samples[i].min_rtt, samples[i].min_rtt);
    EXPECT_EQ(result.samples[i].writes.size(), samples[i].writes.size());
  }
}

TEST(SampleIo, SkipsMalformedLinesInStream) {
  std::stringstream stream;
  stream << serialize_sample(example_sample()) << "\n";
  stream << "garbage line\n";
  stream << serialize_sample(example_sample()) << "\n";
  const auto result = read_samples(stream);
  EXPECT_EQ(result.samples.size(), 2u);
  EXPECT_EQ(result.malformed, 1);
}

}  // namespace
}  // namespace fbedge
