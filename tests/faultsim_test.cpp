// Chaos / property tests for the deterministic fault-injection layer.
//
// The two headline guarantees:
//   1. A zeroed FaultPlan takes exactly the fault-free code path —
//      run_edge_analysis outputs are identical to a call that never
//      mentions faults, at any thread count.
//   2. Under any fault schedule the pipeline degrades gracefully: invalid
//      records are rejected at ingest, dropped/empty windows never enter a
//      rollup or the monitor baseline, results stay within their invariant
//      ranges, and every injected fault is counted — exactly, as verified
//      by recomputing the (pure) injection decisions outside the pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "agg/classifier.h"
#include "agg/rollup.h"
#include "agg/window_verdict.h"
#include "analysis/edge_analysis.h"
#include "analysis/edge_reduce.h"
#include "analysis/sweep.h"
#include "distrib/coordinator.h"
#include "faultsim/fault_injector.h"
#include "goodput/hdratio.h"
#include "runtime/shard_plan.h"
#include "runtime/thread_pool.h"
#include "sampler/io.h"
#include "sampler/sampler.h"
#include "sampler/session_batch.h"
#include "scenario/scenario.h"
#include "stream/monitor_pipeline.h"
#include "workload/generator.h"
#include "workload/world.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

WorldConfig small_world() {
  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.days = 1;
  return wc;
}

DatasetConfig small_dataset() {
  DatasetConfig dc;
  dc.seed = 2019;
  dc.days = 1;
  dc.session_scale = 0.1;
  return dc;
}

SessionSample make_valid_sample() {
  SessionSample s;
  s.id = SessionId{42};
  s.pop = PopId{3};
  s.client.ip = 0x0a000001;
  s.client.bgp_prefix.addr = 0x0a000000;
  s.client.bgp_prefix.length = 24;
  s.client.asn = Asn{65001};
  s.client.country = CountryId{7};
  s.client.continent = Continent::kEurope;
  s.established_at = 1234.5;
  s.duration = 12.0;
  s.busy_time = 3.0;
  s.total_bytes = 250'000;
  s.num_transactions = 2;
  s.route_index = 0;
  s.min_rtt = 0.045;
  ResponseWrite w;
  w.first_byte_nic = 1234.6;
  w.last_byte_nic = 1234.7;
  w.second_last_ack = 1234.75;
  w.last_ack = 1234.76;
  w.bytes = 125'000;
  w.last_packet_bytes = 600;
  w.wnic = 14'400;
  s.writes.push_back(w);
  w.first_byte_nic = 1235.0;
  w.last_byte_nic = 1235.1;
  w.second_last_ack = 1235.2;
  w.last_ack = 1235.21;
  s.writes.push_back(w);
  return s;
}

void expect_counters_eq(const FaultCounters& a, const FaultCounters& b) {
  EXPECT_EQ(a.truncated_records, b.truncated_records);
  EXPECT_EQ(a.corrupt_records, b.corrupt_records);
  EXPECT_EQ(a.rejected_records, b.rejected_records);
  EXPECT_EQ(a.duplicated_samples, b.duplicated_samples);
  EXPECT_EQ(a.skewed_samples, b.skewed_samples);
  EXPECT_EQ(a.thinned_groups, b.thinned_groups);
  EXPECT_EQ(a.thinned_sessions, b.thinned_sessions);
  EXPECT_EQ(a.pop_outage_groups, b.pop_outage_groups);
  EXPECT_EQ(a.dropped_windows, b.dropped_windows);
  EXPECT_EQ(a.stream_late_batches, b.stream_late_batches);
  EXPECT_EQ(a.stream_duplicate_batches, b.stream_duplicate_batches);
  EXPECT_EQ(a.stream_dropped_rows, b.stream_dropped_rows);
  EXPECT_EQ(a.task_aborts, b.task_aborts);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.lost_groups, b.lost_groups);
  EXPECT_EQ(a.worker_crashes, b.worker_crashes);
  EXPECT_EQ(a.worker_retries, b.worker_retries);
  EXPECT_EQ(a.degraded_shards, b.degraded_shards);
  EXPECT_EQ(a.scenario_drained_groups, b.scenario_drained_groups);
  EXPECT_EQ(a.scenario_depref_groups, b.scenario_depref_groups);
  EXPECT_EQ(a.scenario_flash_groups, b.scenario_flash_groups);
  EXPECT_EQ(a.scenario_cable_cut_groups, b.scenario_cable_cut_groups);
  EXPECT_EQ(a.scenario_groups_reused, b.scenario_groups_reused);
  EXPECT_EQ(a.scenario_groups_recomputed, b.scenario_groups_recomputed);
}

void expect_results_eq(const EdgeAnalysisResult& a, const EdgeAnalysisResult& b) {
  EXPECT_EQ(a.groups_analyzed, b.groups_analyzed);
  EXPECT_EQ(a.sessions_analyzed, b.sessions_analyzed);
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
  expect_counters_eq(a.faults, b.faults);
}

// ---------------------------------------------------------------------------
// Decision purity: the foundation of every determinism claim below.
// ---------------------------------------------------------------------------

TEST(FaultPlan, ZeroedPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.sampler_faults());
  EXPECT_FALSE(plan.agg_faults());
  EXPECT_FALSE(plan.runtime_faults());
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_FALSE(fault_decision(plan, faultsite::kTruncate, key, plan.truncate_rate));
    EXPECT_FALSE(task_abort_decision(plan, key, 0));
  }
}

TEST(FaultPlan, DecisionsArePureFunctionsOfSeedSiteAndKey) {
  FaultPlan plan;
  plan.seed = 99;
  plan.truncate_rate = 0.5;
  // Same (site, key) -> same answer no matter how many other decisions were
  // made in between, in any order. This is what makes fault schedules
  // independent of thread count and recomputable by tests.
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 512; ++key) {
    first.push_back(fault_decision(plan, faultsite::kTruncate, key, 0.5));
  }
  for (std::uint64_t key = 511;; --key) {
    EXPECT_EQ(fault_decision(plan, faultsite::kTruncate, key, 0.5),
              first[static_cast<std::size_t>(key)]);
    if (key == 0) break;
  }
  // Different sites with the same key are decorrelated streams.
  int differ = 0;
  for (std::uint64_t key = 0; key < 512; ++key) {
    if (fault_decision(plan, faultsite::kCorrupt, key, 0.5) !=
        first[static_cast<std::size_t>(key)]) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 100);
}

// ---------------------------------------------------------------------------
// Sampler-layer injector units.
// ---------------------------------------------------------------------------

TEST(SamplerFaultStage, PassThroughWhenNoFaultFires) {
  FaultPlan plan;  // all rates zero, but construct the stage anyway
  SamplerFaultStage stage(plan, UserGroupKey{});
  const SessionSample s = make_valid_sample();
  int emitted = 0;
  stage.apply(s, [&](const SessionSample& r) {
    ++emitted;
    EXPECT_EQ(r.id.value, s.id.value);
    EXPECT_EQ(r.min_rtt, s.min_rtt);
  });
  EXPECT_EQ(emitted, 1);
  EXPECT_FALSE(stage.counters().any());
}

TEST(SamplerFaultStage, TruncationCutsTheWireFormat) {
  FaultPlan plan;
  plan.seed = 7;
  plan.truncate_rate = 1.0;
  SamplerFaultStage stage(plan, UserGroupKey{});
  int emitted = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    SessionSample s = make_valid_sample();
    s.id = SessionId{i};
    stage.apply(s, [&](const SessionSample& r) {
      ++emitted;
      // Whatever survives the cut must be semantically valid.
      EXPECT_EQ(validate_sample(r), SampleDefect::kNone);
    });
  }
  EXPECT_EQ(stage.counters().truncated_records, 200u);
  EXPECT_EQ(stage.counters().rejected_records + static_cast<std::uint64_t>(emitted),
            200u);
  // A mid-line cut almost never yields a parseable record.
  EXPECT_GT(stage.counters().rejected_records, 150u);
}

TEST(SamplerFaultStage, CorruptRecordsNeverReachTheSink) {
  FaultPlan plan;
  plan.seed = 11;
  plan.corrupt_rate = 1.0;
  SamplerFaultStage stage(plan, UserGroupKey{});
  for (std::uint64_t i = 0; i < 64; ++i) {
    SessionSample s = make_valid_sample();
    s.id = SessionId{i};
    stage.apply(s, [&](const SessionSample&) {
      FAIL() << "corrupt record emitted";
    });
  }
  EXPECT_EQ(stage.counters().corrupt_records, 64u);
  EXPECT_EQ(stage.counters().rejected_records, 64u);
}

TEST(SamplerFaultStage, SkewShiftsOnlyTheAckClock) {
  FaultPlan plan;
  plan.seed = 13;
  plan.skew_rate = 1.0;
  plan.skew_max = 0.1;
  SamplerFaultStage stage(plan, UserGroupKey{});
  const SessionSample s = make_valid_sample();
  int emitted = 0;
  stage.apply(s, [&](const SessionSample& r) {
    ++emitted;
    ASSERT_EQ(r.writes.size(), s.writes.size());
    EXPECT_EQ(r.min_rtt, s.min_rtt);  // MinRTT stream untouched
    const double delta = r.writes[0].second_last_ack - s.writes[0].second_last_ack;
    EXPECT_LE(std::abs(delta), plan.skew_max);
    EXPECT_NE(delta, 0.0);
    for (std::size_t i = 0; i < r.writes.size(); ++i) {
      // NIC clock untouched; both ACK timestamps shifted by the same delta.
      EXPECT_EQ(r.writes[i].first_byte_nic, s.writes[i].first_byte_nic);
      EXPECT_EQ(r.writes[i].last_byte_nic, s.writes[i].last_byte_nic);
      EXPECT_DOUBLE_EQ(r.writes[i].second_last_ack,
                       s.writes[i].second_last_ack + delta);
      EXPECT_DOUBLE_EQ(r.writes[i].last_ack, s.writes[i].last_ack + delta);
    }
    // Skewed records are valid data (the two streams legitimately disagree
    // under skew); the goodput evaluator is what must tolerate them.
    EXPECT_EQ(validate_sample(r), SampleDefect::kNone);
  });
  EXPECT_EQ(emitted, 1);
  EXPECT_EQ(stage.counters().skewed_samples, 1u);
}

TEST(SamplerFaultStage, DuplicationEmitsTheRecordTwice) {
  FaultPlan plan;
  plan.seed = 17;
  plan.duplicate_rate = 1.0;
  SamplerFaultStage stage(plan, UserGroupKey{});
  const SessionSample s = make_valid_sample();
  int emitted = 0;
  stage.apply(s, [&](const SessionSample& r) {
    ++emitted;
    EXPECT_EQ(r.id.value, s.id.value);
  });
  EXPECT_EQ(emitted, 2);
  EXPECT_EQ(stage.counters().duplicated_samples, 1u);
}

TEST(SamplerFaultStage, ThinnedGroupDropsMostSessions) {
  FaultPlan plan;
  plan.seed = 19;
  plan.thin_rate = 1.0;
  plan.thin_keep_fraction = 0.0;  // drop everything
  SamplerFaultStage stage(plan, UserGroupKey{});
  EXPECT_TRUE(stage.thinned());
  EXPECT_EQ(stage.counters().thinned_groups, 1u);
  for (std::uint64_t i = 0; i < 32; ++i) {
    SessionSample s = make_valid_sample();
    s.id = SessionId{i};
    stage.apply(s, [&](const SessionSample&) { FAIL() << "thinned-out record"; });
  }
  EXPECT_EQ(stage.counters().thinned_sessions, 32u);
}

TEST(SamplerFaultStage, PopOutageSilencesTheGroup) {
  FaultPlan plan;
  plan.seed = 23;
  plan.pop_outage_rate = 1.0;
  UserGroupKey key;
  key.pop = PopId{5};
  SamplerFaultStage stage(plan, key);
  EXPECT_TRUE(stage.pop_out());
  EXPECT_EQ(stage.counters().pop_outage_groups, 1u);
  stage.apply(make_valid_sample(),
              [&](const SessionSample&) { FAIL() << "outage leaked a record"; });
  EXPECT_EQ(stage.counters().thinned_sessions, 0u);

  // Outage is keyed by the PoP alone: two groups on the same PoP make the
  // same decision; a group on another PoP makes its own.
  UserGroupKey same_pop = key;
  same_pop.prefix.addr = 0x01020300;
  EXPECT_TRUE(SamplerFaultStage(plan, same_pop).pop_out());
}

// ---------------------------------------------------------------------------
// Row form: over a window's batch, the stage must emit exactly what the
// record form emits for the same sessions.
// ---------------------------------------------------------------------------

/// Runs every group of the small world through the record form (on
/// generate_group's records) and the row form (on generate_group_batched's
/// batches), and checks that they emit the same records — every field, in
/// the same order, duplicates adjacent, hosting records included — and
/// count the same faults. Returns the summed counters.
FaultCounters expect_row_form_matches_record_form(const FaultPlan& plan) {
  const World world = build_world(small_world());
  const DatasetGenerator generator(world, small_dataset());
  FaultCounters total;
  std::size_t hosting = 0;
  for (const auto& group : world.groups) {
    SamplerFaultStage by_record(plan, group.key);
    std::vector<std::string> expected;
    generator.generate_group(group, [&](const SessionSample& s) {
      by_record.apply(s, [&](const SessionSample& r) {
        // The line format prints every field, doubles to 17 digits.
        expected.push_back(serialize_sample(r));
      });
    });

    SamplerFaultStage by_row(plan, group);
    std::vector<std::string> emitted;
    SessionBatch batch;
    std::vector<std::uint8_t> copies;
    SessionSample record;
    set_group_fields(group, record);
    generator.generate_group_batched(group, batch, [&](int, SessionBatch& b) {
      by_row.apply(b, copies);
      ASSERT_EQ(copies.size(), b.size());
      for (std::size_t i = 0; i < b.size(); ++i) {
        ASSERT_LE(copies[i], 2);
        b.read_row(i, record);
        for (int c = 0; c < copies[i]; ++c) {
          emitted.push_back(serialize_sample(record));
          hosting += record.client.hosting_provider ? 1 : 0;
        }
      }
    });
    if (::testing::Test::HasFatalFailure()) return total;
    EXPECT_EQ(emitted.size(), expected.size());
    const std::size_t n = std::min(emitted.size(), expected.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (emitted[i] != expected[i]) {
        ADD_FAILURE() << "record " << i << " of group " << group.key.prefix.to_string()
                      << "\n row form:    " << emitted[i]
                      << "\n record form: " << expected[i];
        return total;
      }
    }
    expect_counters_eq(by_row.counters(), by_record.counters());
    total.accumulate(by_row.counters());
  }
  EXPECT_GT(hosting, 0u);  // hosting rows pass the stage too
  return total;
}

TEST(SamplerFaultStageRows, TruncationWithSurvivingCutsMatchesTheRecordForm) {
  FaultPlan plan;
  plan.seed = 31;
  plan.truncate_rate = 1.0;
  const FaultCounters c = expect_row_form_matches_record_form(plan);
  EXPECT_GT(c.truncated_records, 0u);
  // Some cuts parse and pass the gate: those rows are rewritten in place.
  EXPECT_GT(c.truncated_records, c.rejected_records);
}

TEST(SamplerFaultStageRows, CorruptionMatchesTheRecordForm) {
  FaultPlan plan;
  plan.seed = 32;
  plan.corrupt_rate = 0.3;
  const FaultCounters c = expect_row_form_matches_record_form(plan);
  EXPECT_GT(c.corrupt_records, 0u);
  EXPECT_EQ(c.rejected_records, c.corrupt_records);
}

TEST(SamplerFaultStageRows, SkewMatchesTheRecordForm) {
  FaultPlan plan;
  plan.seed = 33;
  plan.skew_rate = 0.5;
  EXPECT_GT(expect_row_form_matches_record_form(plan).skewed_samples, 0u);
}

TEST(SamplerFaultStageRows, DuplicationMatchesTheRecordForm) {
  FaultPlan plan;
  plan.seed = 34;
  plan.duplicate_rate = 0.5;
  EXPECT_GT(expect_row_form_matches_record_form(plan).duplicated_samples, 0u);
}

TEST(SamplerFaultStageRows, ThinningMatchesTheRecordForm) {
  FaultPlan plan;
  plan.seed = 35;
  plan.thin_rate = 0.5;
  plan.thin_keep_fraction = 0.3;
  const FaultCounters c = expect_row_form_matches_record_form(plan);
  EXPECT_GT(c.thinned_groups, 0u);
  EXPECT_GT(c.thinned_sessions, 0u);
}

TEST(SamplerFaultStageRows, PopOutageMatchesTheRecordForm) {
  FaultPlan plan;
  plan.seed = 36;
  plan.pop_outage_rate = 0.5;
  EXPECT_GT(expect_row_form_matches_record_form(plan).pop_outage_groups, 0u);
}

TEST(SamplerFaultStageRows, EverySiteAtOnceMatchesTheRecordForm) {
  FaultPlan plan;
  plan.seed = 37;
  plan.truncate_rate = 0.1;
  plan.corrupt_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.skew_rate = 0.1;
  plan.thin_rate = 0.3;
  plan.thin_keep_fraction = 0.5;
  plan.pop_outage_rate = 0.2;
  const FaultCounters c = expect_row_form_matches_record_form(plan);
  // Every corrupt record is rejected, so the other rejects are cuts: some
  // cuts survived.
  EXPECT_GT(c.truncated_records, c.rejected_records - c.corrupt_records);
  EXPECT_GT(c.duplicated_samples, 0u);
  EXPECT_GT(c.skewed_samples, 0u);
  EXPECT_GT(c.thinned_sessions, 0u);
  EXPECT_GT(c.pop_outage_groups, 0u);
}

// ---------------------------------------------------------------------------
// Semantic validation gate (the recoverable counterpart of FBEDGE_EXPECT).
// ---------------------------------------------------------------------------

TEST(ValidateSample, GeneratorShapedSamplePasses) {
  EXPECT_EQ(validate_sample(make_valid_sample()), SampleDefect::kNone);
}

TEST(ValidateSample, ClassifiesEachDefect) {
  auto s = make_valid_sample();
  s.total_bytes = -1;
  EXPECT_EQ(validate_sample(s), SampleDefect::kNegativeBytes);

  s = make_valid_sample();
  s.min_rtt = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(validate_sample(s), SampleDefect::kBadRtt);
  s.min_rtt = -0.05;
  EXPECT_EQ(validate_sample(s), SampleDefect::kBadRtt);

  s = make_valid_sample();
  s.client.bgp_prefix.length = 99;
  EXPECT_EQ(validate_sample(s), SampleDefect::kBadPrefix);

  s = make_valid_sample();
  s.route_index = -3;
  EXPECT_EQ(validate_sample(s), SampleDefect::kBadRoute);

  s = make_valid_sample();
  s.num_transactions = -1;
  EXPECT_EQ(validate_sample(s), SampleDefect::kBadTransactions);

  s = make_valid_sample();
  s.duration = std::numeric_limits<double>::infinity();
  EXPECT_EQ(validate_sample(s), SampleDefect::kBadTime);

  s = make_valid_sample();
  s.writes[1].bytes = -500;
  EXPECT_EQ(validate_sample(s), SampleDefect::kNegativeBytes);

  s = make_valid_sample();
  s.writes[0].last_ack = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(validate_sample(s), SampleDefect::kBadWriteTime);
}

TEST(ValidateSample, AckBeforeNicIsNotADefect) {
  // Clock skew can legitimately pull the ACK timestamps before the NIC
  // ones; the ingest gate must not reject cross-stream disagreement.
  auto s = make_valid_sample();
  for (auto& w : s.writes) {
    w.second_last_ack -= 1.0;
    w.last_ack -= 1.0;
  }
  EXPECT_EQ(validate_sample(s), SampleDefect::kNone);
}

TEST(ReadSamples, CountsMalformedAndInvalidSeparately) {
  std::ostringstream text;
  text << serialize_sample(make_valid_sample()) << '\n';
  auto bad = make_valid_sample();
  bad.min_rtt = std::numeric_limits<double>::quiet_NaN();
  text << serialize_sample(bad) << '\n';  // parses, fails validation
  text << "not\ta\tsample\n";             // does not parse
  std::istringstream in(text.str());
  const ReadResult r = read_samples(in);
  EXPECT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.invalid, 1);
  EXPECT_EQ(r.malformed, 1);
}

// ---------------------------------------------------------------------------
// Goodput evaluator: degenerate timings are skipped, never aborted on.
// ---------------------------------------------------------------------------

TEST(HdEvaluator, DegenerateTimingsAreSkippedNotFatal) {
  HdEvaluator eval;
  TxnTiming good;
  good.btotal = 2'000'000;
  good.ttotal = 1.0;
  good.wnic = 14'400;
  good.min_rtt = 0.05;
  EXPECT_TRUE(eval.evaluate(good).can_test);  // control: the shape can test

  for (const double bad_rtt : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(), -0.05, 0.0}) {
    TxnTiming t = good;
    t.min_rtt = bad_rtt;
    const TxnVerdict v = eval.evaluate(t);  // must not abort in t_model
    EXPECT_FALSE(v.can_test);
    EXPECT_FALSE(v.achieved);
  }
  for (const double bad_ttotal : {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(), -0.5, 0.0}) {
    TxnTiming t = good;
    t.ttotal = bad_ttotal;  // ACK-clock skew can produce this
    const TxnVerdict v = eval.evaluate(t);
    EXPECT_FALSE(v.can_test);
  }
  EXPECT_EQ(eval.result().tested, 1);  // only the control transaction
}

// ---------------------------------------------------------------------------
// Aggregation-layer degradation: drops, thin cells, empty windows.
// ---------------------------------------------------------------------------

TEST(WindowMap, RemoveIfErasesAndCounts) {
  WindowMap map;
  for (int w = 0; w < 10; ++w) {
    map[w].route(0).add_session(0.05, 0.5, 100);
  }
  const std::size_t removed = map.remove_if([](int w, const WindowAgg&) {
    return w % 2 == 1;
  });
  EXPECT_EQ(removed, 5u);
  ASSERT_EQ(map.size(), 5u);
  int expected = 0;
  for (const auto& [w, agg] : map) {
    EXPECT_EQ(w, expected);  // even windows, still ascending
    EXPECT_EQ(agg.route(0)->sessions(), 1);
    expected += 2;
  }
  EXPECT_EQ(map.remove_if([](int, const WindowAgg&) { return false; }), 0u);
  EXPECT_EQ(map.remove_if([](int, const WindowAgg&) { return true; }), 5u);
  EXPECT_TRUE(map.empty());
}

TEST(AggFaultStage, WindowDropsAreDeterministicPerGroupAndWindow) {
  FaultPlan plan;
  plan.seed = 31;
  plan.window_drop_rate = 0.5;
  auto build = [] {
    GroupSeries series;
    for (int w = 0; w < 64; ++w) {
      series.windows[w].route(0).add_session(0.05, 1.0, 1000);
    }
    return series;
  };
  GroupSeries a = build(), b = build();
  FaultCounters ca, cb;
  AggFaultStage(plan).apply(a, 123, ca);
  AggFaultStage(plan).apply(b, 123, cb);
  EXPECT_EQ(ca.dropped_windows, cb.dropped_windows);
  EXPECT_GT(ca.dropped_windows, 10u);
  EXPECT_LT(ca.dropped_windows, 54u);
  EXPECT_EQ(a.windows.size(), b.windows.size());

  // A different group key draws a different schedule.
  GroupSeries c = build();
  FaultCounters cc;
  AggFaultStage(plan).apply(c, 456, cc);
  bool same = c.windows.size() == a.windows.size();
  if (same) {
    auto ia = a.windows.begin();
    for (const auto& [w, agg] : c.windows) {
      if (w != ia->first) {
        same = false;
        break;
      }
      ++ia;
    }
  }
  EXPECT_FALSE(same);
}

TEST(WindowRollup, ValidityGateKeepsThinCellsOutOfRollups) {
  GroupSeries series;
  for (int i = 0; i < 5; ++i) {
    series.windows[0].route(0).add_session(0.05, 1.0, 100);  // 5 sessions: thin
  }
  for (int i = 0; i < 50; ++i) {
    series.windows[1].route(0).add_session(0.06, 0.8, 100);  // 50: valid
  }
  WindowRollup rollup(4, 30);
  rollup.add_series(series);
  EXPECT_EQ(rollup.skipped_thin_cells(), 1u);
  ASSERT_EQ(rollup.windows().size(), 1u);
  const RouteWindowAgg* cell = rollup.windows().at(0).route(0);
  ASSERT_NE(cell, nullptr);
  // Only the valid cell merged: no under-min_sessions window entered.
  EXPECT_EQ(cell->sessions(), 50);

  // The default gate (0) preserves the historical roll-everything behavior.
  WindowRollup legacy(4);
  legacy.add_series(series);
  EXPECT_EQ(legacy.skipped_thin_cells(), 0u);
  EXPECT_EQ(legacy.windows().at(0).route(0)->sessions(), 55);
}

TEST(RollingBaseline, EmptyWindowsNeverEnterTheHistory) {
  // A PoP outage or a dropped window leaves a preferred-route cell with no
  // sessions: it carries no signal and must not dilute the baseline pool.
  RollingBaselineConfig baseline_config;
  const ComparisonConfig comparison;
  const VerdictPolicy policy;
  baseline_config.min_samples = comparison.min_samples;
  RollingBaseline baseline(baseline_config);
  const double z = confidence_z(comparison.alpha);
  int flags = 0;
  auto close = [&](int w, const RouteWindowAgg& cell) {
    const CellSummary summary = summarize_cell(cell, z);
    WindowVerdict v;
    evaluate_window_verdict(w, std::span<const CellSummary>(&summary, 1), baseline,
                            comparison, v);
    flags += v.degr.rtt.exceeds(policy.degradation_rtt) ||
                     v.degr.hd.exceeds(policy.degradation_hd)
                 ? 1
                 : 0;
  };
  const RouteWindowAgg empty;
  close(0, empty);
  EXPECT_EQ(baseline.history_size(), 0);
  close(1, empty);
  EXPECT_EQ(baseline.history_size(), 0);

  RouteWindowAgg filled;
  filled.add_session(0.05, 1.0, 1000);
  close(2, filled);
  EXPECT_EQ(baseline.history_size(), 1);
  EXPECT_EQ(flags, 0);
}

TEST(Classifier, DegenerateInputsAreExcludedNotDivided) {
  ClassifierConfig config;
  EXPECT_EQ(classify_temporal({}, config).cls, TemporalClass::kExcluded);
  config.total_windows = 0;
  WindowObservation o;
  o.window = 0;
  o.has_traffic = true;
  EXPECT_EQ(classify_temporal({o}, config).cls, TemporalClass::kExcluded);
}

// ---------------------------------------------------------------------------
// Runtime layer: bounded retry, partial-shard results.
// ---------------------------------------------------------------------------

TEST(ThreadPoolFailable, RetriesUntilSuccessAndCounts) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<std::uint8_t> failed;
    const RunStats rs = pool.parallel_for_failable(
        ShardPlan::make(30, pool.threads()),
        [](int, std::size_t i, int attempt) {
          return attempt >= static_cast<int>(i % 3);  // succeed on attempt i%3
        },
        RetryPolicy{3, 0}, &failed);
    // Ten tasks each of 0, 1, and 2 failed attempts.
    EXPECT_EQ(rs.faults.task_aborts, 30u) << "threads=" << threads;
    EXPECT_EQ(rs.faults.task_retries, 30u);
    EXPECT_EQ(rs.faults.lost_groups, 0u);
    ASSERT_EQ(failed.size(), 30u);
    for (const auto f : failed) EXPECT_EQ(f, 0);
  }
}

TEST(ThreadPoolFailable, ExhaustedTasksAreReportedLost) {
  ThreadPool pool(3);
  std::vector<std::uint8_t> failed;
  const RunStats rs = pool.parallel_for_failable(
      ShardPlan::make(10, pool.threads()),
      [](int, std::size_t, int) { return false; }, RetryPolicy{2, 0}, &failed);
  EXPECT_EQ(rs.faults.task_aborts, 20u);   // 2 attempts each
  EXPECT_EQ(rs.faults.task_retries, 10u);  // 1 retry each
  EXPECT_EQ(rs.faults.lost_groups, 10u);
  ASSERT_EQ(failed.size(), 10u);
  for (const auto f : failed) EXPECT_EQ(f, 1);
}

TEST(ThreadPoolFailable, BackoffPathCompletes) {
  ThreadPool pool(2);
  const RunStats rs = pool.parallel_for_failable(
      ShardPlan::make(4, pool.threads()),
      [](int, std::size_t, int attempt) { return attempt >= 1; },
      RetryPolicy{2, 0.001}, nullptr);
  EXPECT_EQ(rs.faults.task_aborts, 4u);
  EXPECT_EQ(rs.faults.lost_groups, 0u);
}

TEST(ThreadPoolFailable, EmptyRunCompletes) {
  ThreadPool pool(2);
  std::vector<std::uint8_t> failed{1, 1, 1};
  const RunStats rs = pool.parallel_for_failable(
      ShardPlan::make(0, pool.threads()),
      [](int, std::size_t, int) -> bool { throw 0; }, RetryPolicy{3, 0}, &failed);
  EXPECT_EQ(rs.faults.task_aborts, 0u);
  EXPECT_TRUE(failed.empty());
}

// ---------------------------------------------------------------------------
// End-to-end: the acceptance criteria.
// ---------------------------------------------------------------------------

TEST(FaultsimEndToEnd, ZeroFaultPlanIsIdenticalToFaultFreePath) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  const auto plain = run_edge_analysis(world, dc, {}, {}, {},
                                       RuntimeOptions::sequential());
  for (const int threads : {1, 3}) {
    const auto with_plan = run_edge_analysis(world, dc, {}, {}, {},
                                             RuntimeOptions{threads}, nullptr,
                                             FaultPlan{});
    expect_results_eq(plain, with_plan);
    EXPECT_FALSE(with_plan.faults.any());
  }
}

TEST(FaultsimEndToEnd, FaultedRunIsIdenticalAcrossThreadCounts) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  FaultPlan plan;
  plan.seed = 4242;
  plan.truncate_rate = 0.02;
  plan.corrupt_rate = 0.02;
  plan.duplicate_rate = 0.02;
  plan.skew_rate = 0.05;
  plan.thin_rate = 0.2;
  plan.pop_outage_rate = 0.1;
  plan.window_drop_rate = 0.1;
  plan.task_abort_rate = 0.3;
  plan.task_max_attempts = 2;

  const auto seq = run_edge_analysis(world, dc, {}, {}, {},
                                     RuntimeOptions::sequential(), nullptr, plan);
  const auto par =
      run_edge_analysis(world, dc, {}, {}, {}, RuntimeOptions{3}, nullptr, plan);
  EXPECT_TRUE(seq.faults.any());
  expect_results_eq(seq, par);
}

TEST(FaultsimEndToEnd, CountersMatchInjectedFaultsExactly) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  FaultPlan plan;
  plan.seed = 777;
  plan.truncate_rate = 0.03;
  plan.corrupt_rate = 0.03;
  plan.duplicate_rate = 0.03;
  plan.skew_rate = 0.05;
  plan.thin_rate = 0.25;
  plan.thin_keep_fraction = 0.2;
  plan.pop_outage_rate = 0.15;
  plan.window_drop_rate = 0.2;
  plan.task_abort_rate = 0.7;
  plan.task_max_attempts = 2;

  // Recompute every injection decision outside the pipeline. All decisions
  // are pure functions of (plan, site, entity), so this is exact — not a
  // statistical bound.
  const DatasetGenerator generator(world, dc);
  FaultCounters expected;
  for (const auto& group : world.groups) {
    const std::uint64_t gkey = group_fault_key(group.key);
    int failed_attempts = 0;
    while (failed_attempts < plan.task_max_attempts &&
           task_abort_decision(plan, gkey, failed_attempts)) {
      ++failed_attempts;
    }
    expected.task_aborts += static_cast<std::uint64_t>(failed_attempts);
    if (failed_attempts == plan.task_max_attempts) {
      expected.task_retries += static_cast<std::uint64_t>(failed_attempts - 1);
      ++expected.lost_groups;
      continue;  // a lost group's sampler/agg work never happens
    }
    expected.task_retries += static_cast<std::uint64_t>(failed_attempts);

    SamplerFaultStage stage(plan, group.key);
    GroupSeries series;
    generator.generate_group(group, [&](const SessionSample& s) {
      stage.apply(s, [&](const SessionSample& r) {
        if (!SessionSampler::keep_for_analysis(r.client)) return;
        series.windows[window_index(r.established_at)]
            .route(r.route_index)
            .add_session(r.min_rtt, std::nullopt, r.total_bytes);
      });
    });
    expected.accumulate(stage.counters());
    AggFaultStage(plan).apply(series, gkey, expected);
  }

  const auto result = run_edge_analysis(world, dc, {}, {}, {}, RuntimeOptions{4},
                                        nullptr, plan);
  expect_counters_eq(result.faults, expected);
  EXPECT_TRUE(result.faults.any());
  EXPECT_GT(result.faults.lost_groups, 0u);
  EXPECT_LT(result.faults.lost_groups, world.groups.size());
}

TEST(FaultsimEndToEnd, EdgeReducerRetriesTaskAbortsExactly) {
  // CountersMatchInjectedFaultsExactly's plan, through an EdgeReducer the
  // way the shard coordinator builds one: the reduce itself retries task
  // aborts, skips lost groups and counts both.
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  FaultPlan plan;
  plan.seed = 777;
  plan.truncate_rate = 0.03;
  plan.corrupt_rate = 0.03;
  plan.duplicate_rate = 0.03;
  plan.skew_rate = 0.05;
  plan.thin_rate = 0.25;
  plan.thin_keep_fraction = 0.2;
  plan.pop_outage_rate = 0.15;
  plan.window_drop_rate = 0.2;
  plan.task_abort_rate = 0.7;
  plan.task_max_attempts = 2;

  // The exact recount: attempts abort while the pure decision says so, a
  // group whose every attempt aborted does no sampler or aggregation work.
  const DatasetGenerator generator(world, dc);
  FaultCounters expected;
  for (const auto& group : world.groups) {
    const std::uint64_t gkey = group_fault_key(group.key);
    int failed = 0;
    while (failed < plan.task_max_attempts && task_abort_decision(plan, gkey, failed)) {
      ++failed;
    }
    expected.task_aborts += static_cast<std::uint64_t>(failed);
    if (failed == plan.task_max_attempts) {
      expected.task_retries += static_cast<std::uint64_t>(failed - 1);
      ++expected.lost_groups;
      continue;
    }
    expected.task_retries += static_cast<std::uint64_t>(failed);
    SamplerFaultStage stage(plan, group.key);
    GroupSeries series;
    generator.generate_group(group, [&](const SessionSample& s) {
      stage.apply(s, [&](const SessionSample& r) {
        if (!SessionSampler::keep_for_analysis(r.client)) return;
        series.windows[window_index(r.established_at)]
            .route(r.route_index)
            .add_session(r.min_rtt, std::nullopt, r.total_bytes);
      });
    });
    expected.accumulate(stage.counters());
    AggFaultStage(plan).apply(series, gkey, expected);
  }
  ASSERT_GT(expected.lost_groups, 0u);

  const auto reference = run_edge_analysis(world, dc, {}, {}, {},
                                           RuntimeOptions::sequential(), nullptr, plan);
  const std::size_t n = world.groups.size();
  for (const int threads : {1, 3}) {
    EdgeReducer reducer(world, dc, {}, {}, {}, plan);
    RunStats stats;
    reducer.reduce_range(ShardRange{0, n}, EdgeReducer::BlobFn{},
                         RuntimeOptions{threads}, &stats);
    const EdgeAnalysisResult result = reducer.finish();
    expect_results_eq(reference, result);
    expect_counters_eq(result.faults, expected);
    EXPECT_EQ(stats.faults.task_aborts, expected.task_aborts) << threads << " threads";
    EXPECT_EQ(stats.faults.lost_groups, expected.lost_groups) << threads << " threads";
  }
}

TEST(FaultsimEndToEnd, WorkerCrashCountersMatchInjectedFaultsExactly) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  FaultPlan plan;
  plan.seed = 99;
  plan.worker_crash_rate = 0.6;
  plan.worker_max_attempts = 2;

  // Recount the coordinator's spawn-phase tallies from the (pure) crash
  // decisions alone: a shard retries after each crashed attempt and is
  // degraded when every attempt crashed.
  const int workers = 5;
  FaultCounters expected;
  for (int shard = 0; shard < workers; ++shard) {
    int failed_attempts = 0;
    while (failed_attempts < plan.worker_max_attempts &&
           worker_crash_decision(plan, shard, failed_attempts)) {
      ++failed_attempts;
    }
    expected.worker_crashes += static_cast<std::uint64_t>(failed_attempts);
    if (failed_attempts == plan.worker_max_attempts) {
      expected.worker_retries += static_cast<std::uint64_t>(failed_attempts - 1);
      ++expected.degraded_shards;
    } else {
      expected.worker_retries += static_cast<std::uint64_t>(failed_attempts);
    }
  }
  EXPECT_GT(expected.worker_crashes, 0u);

  FleetOptions options;
  options.workers = workers;
  options.cache_dir = ::testing::TempDir() + "fbedge-workercrash-recount";
  options.faults = plan;
  RunStats stats;
  const auto result =
      run_scale_analysis(world, dc, {}, {}, {}, options, &stats);
  expect_counters_eq(result.faults, expected);
  expect_counters_eq(stats.faults, expected);
  EXPECT_EQ(stats.worker_failures, expected.worker_crashes);

  // Degraded shards are cold-ingested during the reduce: the measurement
  // payload is byte-identical to a run that never mentioned workers.
  const auto plain = run_edge_analysis(world, dc, {}, {}, {},
                                       RuntimeOptions::sequential());
  auto normalized = result;
  normalized.faults = FaultCounters{};
  expect_results_eq(plain, normalized);
}

TEST(FaultsimEndToEnd, ScenarioCountersMatchAppliedDeltasExactly) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  // One delta per scenario site, targets chosen so each actually fires.
  ScenarioPack pack;
  pack.seed = 321;
  DrainDelta drain;
  drain.pop = "EU-pop1";
  drain.start_window = 8;
  drain.end_window = 24;
  pack.drains.push_back(drain);
  DepreferDelta depref;
  depref.asn = 0;  // filled below with a transit ASN the world uses
  pack.deprefs.push_back(depref);
  FlashCrowdDelta flash;
  flash.country = world.groups.front().key.country.value;
  flash.multiplier = 5.0;
  flash.jitter = 0.2;
  pack.flash_crowds.push_back(flash);
  CableCutDelta cut;
  cut.a = Continent::kEurope;
  cut.b = Continent::kAfrica;
  cut.end_window = 96;
  pack.cable_cuts.push_back(cut);

  // Recompute every application decision outside apply_scenario. Scenario
  // deltas are structural (pure in pack x world), so this is exact.
  auto pop_continent = [&](PopId id) {
    for (const auto& pop : world.pops) {
      if (pop.id == id) return pop.continent;
    }
    ADD_FAILURE() << "unknown pop";
    return Continent::kNorthAmerica;
  };
  PopId drained_pop{};
  for (const auto& pop : world.pops) {
    if (pop.name == drain.pop) drained_pop = pop.id;
  }
  for (const auto& group : world.groups) {
    if (!group.routes.empty() &&
        group.routes[0].route.relationship == Relationship::kTransit &&
        !group.routes[0].route.as_path.empty()) {
      depref.asn = group.routes[0].route.as_path.front();
      break;
    }
  }
  ASSERT_NE(depref.asn, 0u) << "world has no transit-preferred group";
  pack.deprefs[0] = depref;

  FaultCounters expected;
  for (const auto& group : world.groups) {
    if (group.key.pop == drained_pop) ++expected.scenario_drained_groups;
    if (group.key.country.value == flash.country) {
      ++expected.scenario_flash_groups;
    }
    if (group.remote_served) {
      const Continent pc = pop_continent(group.key.pop);
      if ((group.continent == cut.a && pc == cut.b) ||
          (group.continent == cut.b && pc == cut.a)) {
        ++expected.scenario_cable_cut_groups;
      }
    }
    // Depref changes a group's route order iff a demoted route precedes a
    // kept one (the stable partition is otherwise the identity).
    bool seen_kept = false;
    bool changed = false;
    for (auto it = group.routes.rbegin(); it != group.routes.rend(); ++it) {
      const bool demoted =
          it->route.relationship == Relationship::kTransit &&
          !it->route.as_path.empty() &&
          it->route.as_path.front() == depref.asn;
      if (!demoted) {
        seen_kept = true;
      } else if (seen_kept) {
        changed = true;
      }
    }
    if (changed) ++expected.scenario_depref_groups;
  }
  ASSERT_GT(expected.scenario_drained_groups, 0u);
  ASSERT_GT(expected.scenario_depref_groups, 0u);
  ASSERT_GT(expected.scenario_flash_groups, 0u);

  FaultCounters applied;
  apply_scenario(world, pack, &applied);
  expect_counters_eq(applied, expected);

  // The pipeline surfaces the same counts, and they ride along unchanged
  // at any thread count.
  for (const int n : {1, 4}) {
    const auto result = run_edge_analysis(world, dc, {}, {}, {},
                                          RuntimeOptions{n}, nullptr, {}, {},
                                          pack);
    expect_counters_eq(result.faults, expected);
  }
}

TEST(FaultsimEndToEnd, SweepDecisionCountersMatchFootprintExactly) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  ScenarioPack pack;
  pack.seed = 77;
  DrainDelta drain;
  drain.pop = "EU-pop1";
  drain.start_window = 8;
  drain.end_window = 24;
  pack.drains.push_back(drain);
  FlashCrowdDelta flash;
  flash.country = world.groups.front().key.country.value;
  flash.multiplier = 3.0;
  pack.flash_crowds.push_back(flash);

  // Recount every sweep decision outside the engine: a group is recomputed
  // iff it matches any delta's footprint (pure in pack x world), reused
  // otherwise. scenario_groups_reused + scenario_groups_recomputed must
  // tile the world exactly.
  PopId drained_pop{};
  for (const auto& pop : world.pops) {
    if (pop.name == drain.pop) drained_pop = pop.id;
  }
  std::uint64_t expected_recomputed = 0;
  for (const auto& group : world.groups) {
    if (group.key.pop == drained_pop ||
        group.key.country.value == flash.country) {
      ++expected_recomputed;
    }
  }
  ASSERT_GT(expected_recomputed, 0u);
  ASSERT_LT(expected_recomputed, world.groups.size());
  const std::uint64_t expected_reused =
      world.groups.size() - expected_recomputed;
  EXPECT_EQ(affected_groups(world, pack).size(), expected_recomputed);

  for (const int n : {1, 4}) {
    RunStats stats;
    const SweepOutcome outcome = run_scenario_sweep(
        world, dc, {}, {}, {}, {pack}, RuntimeOptions{n}, &stats);
    ASSERT_EQ(outcome.scenarios.size(), 1u);
    const FaultCounters& faults = outcome.scenarios[0].result.faults;
    EXPECT_EQ(faults.scenario_groups_recomputed, expected_recomputed);
    EXPECT_EQ(faults.scenario_groups_reused, expected_reused);
    EXPECT_EQ(stats.faults.scenario_groups_recomputed, expected_recomputed);
    EXPECT_EQ(stats.faults.scenario_groups_reused, expected_reused);
    // The baseline carries no sweep decisions.
    EXPECT_EQ(outcome.baseline.faults.scenario_groups_reused, 0u);
    EXPECT_EQ(outcome.baseline.faults.scenario_groups_recomputed, 0u);
  }
}

TEST(FaultsimEndToEnd, FaultedSweepBypassesReuseBothDirections) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  ScenarioPack pack;
  pack.seed = 77;
  DrainDelta drain;
  drain.pop = "EU-pop1";
  drain.start_window = 8;
  drain.end_window = 24;
  pack.drains.push_back(drain);

  FaultPlan faults;
  faults.seed = 99;
  faults.truncate_rate = 0.3;
  faults.thin_rate = 0.2;

  RunStats stats;
  const SweepOutcome outcome = run_scenario_sweep(
      world, dc, {}, {}, {}, {pack}, RuntimeOptions::sequential(), &stats,
      faults);
  // Reuse is bypassed: no splice decisions were made anywhere.
  EXPECT_EQ(stats.faults.scenario_groups_reused, 0u);
  EXPECT_EQ(stats.faults.scenario_groups_recomputed, 0u);
  EXPECT_EQ(outcome.scenarios[0].result.faults.scenario_groups_reused, 0u);
  EXPECT_EQ(outcome.scenarios[0].result.faults.scenario_groups_recomputed, 0u);
  EXPECT_TRUE(outcome.scenarios[0].affected.empty());

  // And the outputs are exactly the independent faulted runs.
  const auto base = run_edge_analysis(world, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), nullptr,
                                      faults);
  const auto scen = run_edge_analysis(world, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), nullptr,
                                      faults, {}, pack);
  expect_counters_eq(outcome.baseline.faults, base.faults);
  expect_counters_eq(outcome.scenarios[0].result.faults, scen.faults);
}

TEST(FaultsimStream, StreamCountersMatchInjectedFaultsExactly) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  FaultPlan plan;
  plan.seed = 909;
  plan.stream_late_rate = 0.15;
  plan.stream_late_max_delay = 2;
  plan.stream_duplicate_rate = 0.1;

  StreamMonitorOptions options;
  options.max_batch_rows = 64;

  // Recount every stream-transport decision outside the pipeline. The
  // micro-batch slicing is a pure function of the dataset, so a zero-fault
  // replay enumerates exactly the (window, seq) chunk keys the faulted run
  // draws decisions for; kStreamLate / kStreamDup are then recomputed per
  // key. Every held batch is eventually released (group-end drain), so the
  // duplicate count is the dup decisions over ALL chunks, held or not.
  // Dropped rows are recounted with a standalone sequential machine replay
  // under the faulted plan.
  const DatasetGenerator generator(world, dc);
  FaultCounters expected;
  StreamSourceScratch scratch;
  WindowMachine machine;
  for (const auto& group : world.groups) {
    const std::uint64_t gkey = group_fault_key(group.key);
    std::vector<std::pair<int, int>> chunks;  // (window, micro-batch count)
    FaultCounters none;
    replay_group_stream(generator, group, options.goodput, options.max_batch_rows,
                        FaultPlan{}, none, scratch,
                        [&](int w, const StreamRow*, std::size_t) {
                          if (chunks.empty() || chunks.back().first != w) {
                            chunks.push_back({w, 0});
                          }
                          ++chunks.back().second;
                        });
    EXPECT_FALSE(none.any());
    for (const auto& [w, n] : chunks) {
      for (int seq = 0; seq < n; ++seq) {
        const std::uint64_t key = stream_batch_fault_key(gkey, w, seq);
        if (fault_decision(plan, faultsite::kStreamLate, key,
                           plan.stream_late_rate)) {
          ++expected.stream_late_batches;
        }
        if (fault_decision(plan, faultsite::kStreamDup, key,
                           plan.stream_duplicate_rate)) {
          ++expected.stream_duplicate_batches;
        }
      }
    }
    machine.start_group(options.allowed_lateness_windows, [](int, WindowAgg&) {});
    FaultCounters scratch_counters;
    replay_group_stream(generator, group, options.goodput, options.max_batch_rows,
                        plan, scratch_counters, scratch,
                        [&](int w, const StreamRow* rows, std::size_t n) {
                          machine.on_delivery(w, rows, n);
                        });
    machine.flush();
    expected.stream_dropped_rows += machine.late_rows();
  }

  RunStats stats;
  const auto result = run_stream_monitor(world, dc, MonitorMode::kStream, options,
                                         RuntimeOptions{4}, &stats, plan);
  expect_counters_eq(result.faults, expected);
  expect_counters_eq(stats.faults, expected);
  EXPECT_GT(result.faults.stream_late_batches, 0u);
  EXPECT_GT(result.faults.stream_duplicate_batches, 0u);
  EXPECT_GT(result.faults.stream_dropped_rows, 0u);
  EXPECT_EQ(result.total.late_rows, result.faults.stream_dropped_rows);
}

TEST(FaultsimEndToEnd, FaultedRunsBypassTheIngestCache) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const IngestCacheOptions cache{::testing::TempDir() + "fbedge_fault_cache"};
  const std::string path =
      ingest_artifact_path(cache.dir, ingest_cache_key(world, dc, {}));
  std::remove(path.c_str());

  FaultPlan plan;
  plan.seed = 4242;
  plan.window_drop_rate = 0.1;  // any nonzero rate disables the cache

  // 1. A faulted run must not WRITE an artifact (faulted series would
  // poison every later zero-fault run with the same key).
  RunStats stats;
  const auto faulted = run_edge_analysis(world, dc, {}, {}, {},
                                         RuntimeOptions::sequential(), &stats,
                                         plan, cache);
  EXPECT_TRUE(faulted.faults.any());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "faulted run wrote an artifact";
  if (f) std::fclose(f);

  // 2. With a valid zero-fault artifact present, a faulted run must not
  // READ it either: its output must equal a cache-less faulted run.
  run_edge_analysis(world, dc, {}, {}, {}, RuntimeOptions::sequential(),
                    nullptr, {}, cache);  // zero-fault run seeds the artifact
  f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  RunStats seeded_stats;
  const auto faulted_again = run_edge_analysis(world, dc, {}, {}, {},
                                               RuntimeOptions::sequential(),
                                               &seeded_stats, plan, cache);
  EXPECT_EQ(seeded_stats.cache_hits, 0u);
  EXPECT_EQ(seeded_stats.cache_misses, 0u);
  expect_results_eq(faulted, faulted_again);
  const auto no_cache = run_edge_analysis(world, dc, {}, {}, {},
                                          RuntimeOptions::sequential(), nullptr,
                                          plan);
  expect_results_eq(faulted, no_cache);
}

TEST(FaultsimEndToEnd, TotalPopOutageDegradesToEmptyResult) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  FaultPlan plan;
  plan.seed = 5;
  plan.pop_outage_rate = 1.0;
  const auto result = run_edge_analysis(world, dc, {}, {}, {},
                                        RuntimeOptions::sequential(), nullptr, plan);
  EXPECT_EQ(result.groups_analyzed, 0);
  EXPECT_EQ(result.total_traffic, 0.0);
  EXPECT_EQ(result.faults.pop_outage_groups, world.groups.size());
  EXPECT_TRUE(result.table1.empty());
}

TEST(FaultsimEndToEnd, ThinnedSeriesRollupExcludesInvalidCells) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  FaultPlan plan;
  plan.seed = 6;
  plan.thin_rate = 1.0;
  plan.thin_keep_fraction = 0.05;

  // No invalid (under-30-sample) window may enter a rollup: every cell the
  // gated rollup kept must itself satisfy the floor.
  const DatasetGenerator generator(world, dc);
  constexpr int kMinSessions = 30;
  std::uint64_t total_skipped = 0;
  for (const auto& group : world.groups) {
    SamplerFaultStage stage(plan, group.key);
    GroupSeries series;
    generator.generate_group(group, [&](const SessionSample& s) {
      stage.apply(s, [&](const SessionSample& r) {
        if (!SessionSampler::keep_for_analysis(r.client)) return;
        series.windows[window_index(r.established_at)]
            .route(r.route_index)
            .add_session(r.min_rtt, std::nullopt, r.total_bytes);
      });
    });
    std::uint64_t group_thin = 0;
    for (const auto& [w, agg] : series.windows) {
      for (const auto& cell : agg.routes) {
        if (cell.sessions() > 0 && cell.sessions() < kMinSessions) ++group_thin;
      }
    }
    WindowRollup rollup(1, kMinSessions);  // factor 1: gate without merging
    rollup.add_series(series);
    EXPECT_EQ(rollup.skipped_thin_cells(), group_thin);
    for (const auto& [w, agg] : rollup.windows()) {
      for (const auto& cell : agg.routes) {
        if (cell.sessions() > 0) {
          EXPECT_GE(cell.sessions(), kMinSessions);
        }
      }
    }
    EXPECT_GT(stage.counters().thinned_sessions, 0u);
    total_skipped += group_thin;
  }
  EXPECT_GT(total_skipped, 0u);  // thinning actually produced invalid windows
}

TEST(FaultsimChaos, HundredSeededSweepsNeverViolateInvariants) {
  WorldConfig wc = small_world();
  wc.groups_per_continent = 1;
  const World world = build_world(wc);
  DatasetConfig dc = small_dataset();
  dc.session_scale = 0.05;

  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rates(hash_mix(seed));
    FaultPlan plan;
    plan.seed = seed;
    plan.truncate_rate = rates.uniform(0.0, 0.15);
    plan.corrupt_rate = rates.uniform(0.0, 0.15);
    plan.duplicate_rate = rates.uniform(0.0, 0.15);
    plan.skew_rate = rates.uniform(0.0, 0.25);
    plan.skew_max = rates.uniform(0.01, 0.5);
    plan.thin_rate = rates.uniform(0.0, 0.4);
    plan.thin_keep_fraction = rates.uniform(0.0, 0.3);
    plan.pop_outage_rate = rates.uniform(0.0, 0.25);
    plan.window_drop_rate = rates.uniform(0.0, 0.4);
    plan.task_abort_rate = rates.uniform(0.0, 0.5);
    plan.task_max_attempts = static_cast<int>(rates.uniform_int(1, 4));

    const auto res = run_edge_analysis(world, dc, {}, {}, {},
                                       RuntimeOptions::sequential(), nullptr, plan);

    // Graceful degradation invariants: no crash (we got here), fractions in
    // range, counters self-consistent, no group both analyzed and lost.
    for (const double frac :
         {res.degr_valid_traffic_rtt, res.degr_valid_traffic_hd,
          res.opp_valid_traffic_rtt, res.opp_valid_traffic_hd, res.rtt_within_3ms,
          res.hd_within_0025, res.rtt_improvable_5ms, res.hd_improvable_005}) {
      EXPECT_GE(frac, 0.0) << "seed=" << seed;
      EXPECT_LE(frac, 1.0) << "seed=" << seed;
    }
    for (const auto& [key, cell] : res.table1) {
      EXPECT_GE(cell.group_traffic, 0.0) << "seed=" << seed;
      EXPECT_LE(cell.group_traffic, 1.0 + 1e-9) << "seed=" << seed;
    }
    EXPECT_GE(res.total_traffic, 0.0);
    EXPECT_LE(static_cast<std::size_t>(res.groups_analyzed),
              world.groups.size() - res.faults.lost_groups)
        << "seed=" << seed;
    EXPECT_LE(res.faults.rejected_records,
              res.faults.truncated_records + res.faults.corrupt_records)
        << "seed=" << seed;
    EXPECT_LE(res.faults.task_retries, res.faults.task_aborts) << "seed=" << seed;
    EXPECT_LE(res.faults.lost_groups, world.groups.size()) << "seed=" << seed;
    EXPECT_LE(res.faults.pop_outage_groups, world.groups.size()) << "seed=" << seed;

    // Determinism under chaos: every 10th seed re-runs sharded.
    if (seed % 10 == 0) {
      const auto par = run_edge_analysis(world, dc, {}, {}, {}, RuntimeOptions{3},
                                         nullptr, plan);
      expect_results_eq(res, par);
    }
  }
}

}  // namespace
}  // namespace fbedge
