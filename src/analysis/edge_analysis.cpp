#include "analysis/edge_analysis.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <string>

#include "analysis/edge_reduce.h"

#include "agg/series_io.h"
#include "faultsim/fault_injector.h"
#include "routing/policy.h"
#include "sampler/session_batch.h"

namespace fbedge {

namespace {

/// Raw (unnormalized) Table 1 accumulator plus its normalization totals.
///
/// The key space is tiny and fully enumerable — (4 kinds) x (a handful of
/// thresholds) x (5 classes) x (overall + 6 continents) — so the former
/// `std::map<std::tuple<...>>` is a dense flat array indexed arithmetically:
/// add() on the per-group hot path is two array writes instead of two
/// red-black-tree inserts, and merge() is an elementwise loop. `touched`
/// preserves the map's presence semantics (a cell appears in the normalized
/// output only if some group was classified into it).
struct Table1Accumulator {
  static constexpr int kKinds = 4;
  static constexpr int kMaxThresholds = 8;
  static constexpr int kClasses = 5;  // TemporalClass values
  static constexpr int kScopes = kNumContinents + 1;  // index 0 = overall (-1)
  static constexpr int kCells = kKinds * kMaxThresholds * kClasses * kScopes;
  static constexpr int kDenoms = kKinds * kMaxThresholds * kScopes;

  std::array<Table1Cell, kCells> cells{};
  std::array<bool, kCells> touched{};
  std::array<double, kDenoms> denominators{};

  static int cell_index(AnalysisKind kind, int threshold_idx, TemporalClass cls,
                        int scope) {
    return ((static_cast<int>(kind) * kMaxThresholds + threshold_idx) * kClasses +
            static_cast<int>(cls)) *
               kScopes +
           (scope + 1);
  }
  static int denom_index(AnalysisKind kind, int threshold_idx, int scope) {
    return (static_cast<int>(kind) * kMaxThresholds + threshold_idx) * kScopes +
           (scope + 1);
  }

  void add(AnalysisKind kind, int threshold_idx, const Classification& c,
           int continent) {
    FBEDGE_EXPECT(threshold_idx < kMaxThresholds, "too many Table 1 thresholds");
    if (c.cls == TemporalClass::kExcluded) return;
    for (const int scope : {-1, continent}) {
      auto& cell = cells[static_cast<std::size_t>(cell_index(kind, threshold_idx,
                                                             c.cls, scope))];
      touched[static_cast<std::size_t>(cell_index(kind, threshold_idx, c.cls,
                                                  scope))] = true;
      cell.group_traffic += static_cast<double>(c.total_traffic);
      cell.event_traffic += static_cast<double>(c.event_traffic);
      denominators[static_cast<std::size_t>(denom_index(kind, threshold_idx, scope))] +=
          static_cast<double>(c.total_traffic);
    }
  }

  /// Folds another accumulator in. Elementwise over fixed indices, so every
  /// cell accumulates in the same (group-id) order the ordered-map version
  /// did — the merged sums are bitwise identical for any shard count.
  void merge(const Table1Accumulator& other) {
    for (int i = 0; i < kCells; ++i) {
      cells[static_cast<std::size_t>(i)].group_traffic +=
          other.cells[static_cast<std::size_t>(i)].group_traffic;
      cells[static_cast<std::size_t>(i)].event_traffic +=
          other.cells[static_cast<std::size_t>(i)].event_traffic;
      touched[static_cast<std::size_t>(i)] =
          touched[static_cast<std::size_t>(i)] || other.touched[static_cast<std::size_t>(i)];
    }
    for (int i = 0; i < kDenoms; ++i) {
      denominators[static_cast<std::size_t>(i)] +=
          other.denominators[static_cast<std::size_t>(i)];
    }
  }

  void normalize_into(decltype(EdgeAnalysisResult::table1)& out) const {
    // Same enumeration order as the former map's tuple ordering:
    // (kind, threshold, class, scope) with overall (-1) before continents.
    for (int k = 0; k < kKinds; ++k) {
      const auto kind = static_cast<AnalysisKind>(k);
      for (int t = 0; t < kMaxThresholds; ++t) {
        for (int c = 0; c < kClasses; ++c) {
          const auto cls = static_cast<TemporalClass>(c);
          for (int scope = -1; scope < kNumContinents; ++scope) {
            if (!touched[static_cast<std::size_t>(cell_index(kind, t, cls, scope))]) {
              continue;
            }
            const double denom =
                denominators[static_cast<std::size_t>(denom_index(kind, t, scope))];
            if (denom <= 0) continue;
            const auto& cell =
                cells[static_cast<std::size_t>(cell_index(kind, t, cls, scope))];
            Table1Cell normalized;
            normalized.group_traffic = cell.group_traffic / denom;
            normalized.event_traffic = cell.event_traffic / denom;
            out[{kind, t, cls, scope}] = normalized;
          }
        }
      }
    }
  }
};

/// Refills `obs` with classifier inputs for one group + one predicate over
/// windows. The buffer is reused across the 11 per-group classifications,
/// which all stream the same window summaries (window id, total traffic).
/// `traffic(w, total)` receives the window's total traffic for the
/// opportunity passes' fallback.
template <typename EventFn, typename ValidFn, typename TrafficFn>
void make_observations_into(const SeriesSummary& series,
                            std::vector<WindowObservation>& obs, EventFn event,
                            ValidFn valid, TrafficFn traffic) {
  obs.clear();
  obs.reserve(series.windows.size());
  for (const WindowSummary& ws : series.windows) {
    const int w = ws.window;
    WindowObservation o;
    o.window = w;
    o.has_traffic = ws.traffic > 0;
    o.valid = valid(w);
    o.event = o.valid && event(w);
    o.traffic = traffic(w, ws.traffic);
    obs.push_back(o);
  }
}

/// Per-worker scratch for reduce_group: every buffer here is cleared (not
/// shrunk) per group/window, so after each arena reaches its high-water
/// mark the whole generate -> coalesce -> HD -> aggregate loop runs without
/// per-session allocations. One instance per pool worker
/// (shard_map_reduce_scratch); results are independent of which worker's
/// scratch served a group because every field is rebuilt before use.
struct EdgeScratch {
  SessionBatch batch;
  CoalescedBatch coalesced;
  std::vector<SessionHd> hd;
  CoalescedSession coalesce_scratch;  // legacy scalar path (fault runs)
  std::vector<WindowObservation> obs;
  /// The group's aggregation series on the cold path, recycled (not
  /// reallocated) between groups: route cells return to `pool` with their
  /// t-digest buffers intact, so steady-state ingest of a new group
  /// allocates almost nothing. A recycled series is behaviorally identical
  /// to a fresh one.
  GroupSeries series;
  RouteAggPool pool;
  /// Serialization buffer for the ingest-artifact cache's cold path.
  ByteWriter writer;
  /// One group's artifact blob on the warm path (IngestArtifactReader::read).
  std::string blob;
  /// The warm path's one cell: each cell of a blob is loaded here,
  /// summarized and dropped (summarize_group_series).
  RouteWindowAgg cell;
  /// The group's cell summaries: what every analysis pass reads.
  SeriesSummary summary;
  /// Analysis-pass buffers, cleared per group.
  DegradationScratch degr_scratch;
  DegradationResult degr;
  std::vector<OpportunityWindow> opp;
  std::vector<const DegradationWindow*> degr_by_window;
  std::vector<const OpportunityWindow*> opp_by_window;
};

/// Most-preferred alternate (lowest index > 0) with the given relationship;
/// -1 if none. Routes are policy-ranked, so the first hit is the most
/// preferred (§6.3).
int first_alternate_of(const UserGroupProfile& group, Relationship rel) {
  for (int i = 1; i < static_cast<int>(group.routes.size()); ++i) {
    if (group.routes[static_cast<std::size_t>(i)].route.relationship == rel) return i;
  }
  return -1;
}

/// Everything one user group contributes to the sweep, before the final
/// normalizations. The sharded runtime produces one of these per group and
/// merges them in group-id order; the CDF fields and the raw table sums
/// live in an EdgeAnalysisResult whose scalar outputs stay zero until
/// normalization.
struct EdgePartial {
  EdgeAnalysisResult res;  // CDFs + raw table2 traffic sums
  Table1Accumulator table1;

  double degr_valid_rtt_traffic{0};
  double degr_valid_hd_traffic{0};
  double preferred_traffic_total{0};
  double opp_valid_rtt_traffic{0};
  double opp_valid_hd_traffic{0};
  double within3_traffic{0};
  double within0025_traffic{0};
  double improvable_rtt_traffic{0};
  double improvable_hd_traffic{0};

  void merge(const EdgePartial& other) {
    res.degr_rtt.merge(other.res.degr_rtt);
    res.degr_rtt_lower.merge(other.res.degr_rtt_lower);
    res.degr_rtt_upper.merge(other.res.degr_rtt_upper);
    res.degr_hd.merge(other.res.degr_hd);
    res.degr_hd_lower.merge(other.res.degr_hd_lower);
    res.degr_hd_upper.merge(other.res.degr_hd_upper);
    res.opp_rtt.merge(other.res.opp_rtt);
    res.opp_rtt_lower.merge(other.res.opp_rtt_lower);
    res.opp_rtt_upper.merge(other.res.opp_rtt_upper);
    res.opp_hd.merge(other.res.opp_hd);
    res.opp_hd_lower.merge(other.res.opp_hd_lower);
    res.opp_hd_upper.merge(other.res.opp_hd_upper);
    res.fig10_peer_vs_transit.merge(other.res.fig10_peer_vs_transit);
    res.fig10_transit_vs_transit.merge(other.res.fig10_transit_vs_transit);
    res.fig10_private_vs_public.merge(other.res.fig10_private_vs_public);
    for (const auto& [pair, row] : other.res.table2_rtt) {
      auto& mine = res.table2_rtt[pair];
      mine.absolute += row.absolute;
      mine.longer += row.longer;
      mine.prepended += row.prepended;
    }
    for (const auto& [pair, row] : other.res.table2_hd) {
      auto& mine = res.table2_hd[pair];
      mine.absolute += row.absolute;
      mine.longer += row.longer;
      mine.prepended += row.prepended;
    }
    res.total_traffic += other.res.total_traffic;
    res.groups_analyzed += other.res.groups_analyzed;
    res.sessions_analyzed += other.res.sessions_analyzed;
    res.faults.accumulate(other.res.faults);
    table1.merge(other.table1);

    degr_valid_rtt_traffic += other.degr_valid_rtt_traffic;
    degr_valid_hd_traffic += other.degr_valid_hd_traffic;
    preferred_traffic_total += other.preferred_traffic_total;
    opp_valid_rtt_traffic += other.opp_valid_rtt_traffic;
    opp_valid_hd_traffic += other.opp_valid_hd_traffic;
    within3_traffic += other.within3_traffic;
    within0025_traffic += other.within0025_traffic;
    improvable_rtt_traffic += other.improvable_rtt_traffic;
    improvable_hd_traffic += other.improvable_hd_traffic;
  }
};

/// The ingest half of the pipeline: simulates this group's sampled
/// sessions and folds them into `scratch.series` (recycled through
/// `scratch.pool` first). This is the expensive, cacheable stage — its
/// product is a pure function of (world, config, goodput, faults), and on
/// fault-free runs it is exactly what the ingest-artifact cache persists.
void ingest_group(EdgeScratch& scratch, const DatasetGenerator& generator,
                  const UserGroupProfile& group, const GoodputConfig& goodput,
                  const FaultPlan& faults, FaultCounters& fault_counters) {
  GroupSeries& series = scratch.series;
  scratch.pool.recycle(series);
  series.continent = group.continent;
  if (!faults.sampler_faults()) {
    // Batched columnar path: one window of sessions at a time through
    // coalesce -> HD -> aggregate, all in per-worker arenas. Rows arrive in
    // the same order generate_group emits sessions and carry bit-identical
    // values (same simulation template, same RNG stream), and the window
    // index is still computed per row from established_at — a session's
    // start is drawn in [window_start, window_start + kWindowLength], so
    // trusting the nominal window id would mis-bin a draw that lands
    // exactly on the upper boundary.
    generator.generate_group_batched(
        group, scratch.batch, [&](int, const SessionBatch& b) {
          // Hosting-provider rows (the §2.2.4 keep_for_analysis filter) are
          // skipped before coalescing ever sees them.
          coalesce_batch(b, b.hosting.data(), scratch.coalesced);
          const std::size_t rows = b.size();
          scratch.hd.resize(rows);
          evaluate_hd_batch(scratch.coalesced.txns.data(),
                            scratch.coalesced.offset.data(),
                            scratch.coalesced.count.data(), rows, scratch.hd.data(),
                            goodput);
          for (std::size_t i = 0; i < rows; ++i) {
            if (b.hosting[i] != 0) continue;
            series.windows[window_index(b.established_at[i])]
                .route_pooled(b.route_index[i], scratch.pool)
                .add_session(b.min_rtt[i], scratch.hd[i].hdratio(), b.total_bytes[i]);
          }
        });
  } else {
    // The fault stage sits where the load balancer hands records to the
    // analytics tier; records that fail semantic validation after a fault
    // never reach metric extraction. Fault injection mutates individual
    // records (truncation, duplication, skew), so this path keeps the
    // scalar per-session representation.
    const auto ingest = [&](const SessionSample& s) {
      if (!SessionSampler::keep_for_analysis(s.client)) return;
      const SessionMetrics m =
          compute_session_metrics(s, scratch.coalesce_scratch, goodput);
      series.windows[window_index(s.established_at)]
          .route(s.route_index)
          .add_session(m.min_rtt, m.hdratio, m.traffic);
    };
    SamplerFaultStage stage(faults, group.key);
    generator.generate_group(
        group, [&](const SessionSample& s) { stage.apply(s, ingest); });
    fault_counters.accumulate(stage.counters());
  }
  if (faults.agg_faults()) {
    AggFaultStage(faults).apply(series, group_fault_key(group.key), fault_counters);
  }
}

/// The analysis half: everything downstream of the per-group series —
/// degradation, opportunity, temporal classification, Tables 1-2, Fig. 10.
/// Reads only the series' cell summaries, so it runs identically on a
/// freshly ingested series and on a blob from the artifact cache.
void analyze_summary_into(EdgeScratch& scratch, const SeriesSummary& series,
                          const UserGroupProfile& group,
                          const AnalysisThresholds& thresholds,
                          const ComparisonConfig& comparison,
                          const ClassifierConfig& classifier_config,
                          EdgePartial& part) {
  EdgeAnalysisResult& out = part.res;
  if (series.windows.empty()) return;
  Bytes total_traffic = 0;
  for (const WindowSummary& ws : series.windows) {
    total_traffic += ws.traffic;
    if (ws.routes > 0) {
      part.preferred_traffic_total +=
          static_cast<double>(series.cells[ws.first].traffic);
    }
  }
  for (const CellSummary& cell : series.cells) {
    out.sessions_analyzed += static_cast<std::uint64_t>(cell.sessions);
  }
  out.total_traffic += static_cast<double>(total_traffic);
  ++out.groups_analyzed;
  const int continent = static_cast<int>(group.continent);

  // Window indexes are dense small ints (< days * 96), so the per-window
  // degradation/opportunity lookups are flat pointer vectors instead of
  // hash maps; lookup on the classification path is one indexed load.
  const int total_windows = classifier_config.total_windows;
  const auto window_slot = [total_windows](auto& vec, int w) -> auto& {
    if (w >= static_cast<int>(vec.size())) {
      vec.resize(static_cast<std::size_t>(std::max(w + 1, total_windows)), nullptr);
    }
    return vec[static_cast<std::size_t>(w)];
  };
  const auto window_at = [](const auto& vec, int w) {
    return (w >= 0 && w < static_cast<int>(vec.size()))
               ? vec[static_cast<std::size_t>(w)]
               : nullptr;
  };

  // ---- degradation (§5, Fig. 8) ------------------------------------------
  analyze_degradation_into(series, comparison, scratch.degr_scratch, scratch.degr);
  const DegradationResult& degr = scratch.degr;
  std::vector<const DegradationWindow*>& degr_by_window = scratch.degr_by_window;
  degr_by_window.clear();
  for (const auto& dw : degr.windows) {
    window_slot(degr_by_window, dw.window) = &dw;
    const double weight = std::max<double>(1, static_cast<double>(dw.traffic));
    if (dw.rtt.valid()) {
      part.degr_valid_rtt_traffic += static_cast<double>(dw.traffic);
      out.degr_rtt.add(dw.rtt.diff.estimate, weight);
      out.degr_rtt_lower.add(dw.rtt.diff.lower, weight);
      out.degr_rtt_upper.add(dw.rtt.diff.upper, weight);
    }
    if (dw.hd.valid()) {
      part.degr_valid_hd_traffic += static_cast<double>(dw.traffic);
      out.degr_hd.add(dw.hd.diff.estimate, weight);
      out.degr_hd_lower.add(dw.hd.diff.lower, weight);
      out.degr_hd_upper.add(dw.hd.diff.upper, weight);
    }
  }

  // ---- opportunity (§6, Fig. 9) ------------------------------------------
  analyze_opportunity_into(series, comparison, scratch.opp);
  const std::vector<OpportunityWindow>& opp = scratch.opp;
  std::vector<const OpportunityWindow*>& opp_by_window = scratch.opp_by_window;
  opp_by_window.clear();
  for (const auto& ow : opp) {
    window_slot(opp_by_window, ow.window) = &ow;
    const double weight = std::max<double>(1, static_cast<double>(ow.traffic));
    if (ow.rtt.valid()) {
      part.opp_valid_rtt_traffic += static_cast<double>(ow.traffic);
      out.opp_rtt.add(ow.rtt.diff.estimate, weight);
      out.opp_rtt_lower.add(ow.rtt.diff.lower, weight);
      out.opp_rtt_upper.add(ow.rtt.diff.upper, weight);
      // Preferred within 3 ms of optimal: the alternate is at most 3 ms
      // faster (diff = preferred - alternate).
      if (ow.rtt.diff.estimate <= 0.003) {
        part.within3_traffic += static_cast<double>(ow.traffic);
      }
      if (ow.rtt_opportunity(thresholds.opportunity_rtt.front())) {
        part.improvable_rtt_traffic += static_cast<double>(ow.traffic);
      }
    }
    if (ow.hd.valid()) {
      part.opp_valid_hd_traffic += static_cast<double>(ow.traffic);
      out.opp_hd.add(ow.hd.diff.estimate, weight);
      out.opp_hd_lower.add(ow.hd.diff.lower, weight);
      out.opp_hd_upper.add(ow.hd.diff.upper, weight);
      if (ow.hd.diff.estimate <= 0.025) {
        part.within0025_traffic += static_cast<double>(ow.traffic);
      }
      if (ow.hd_opportunity(thresholds.opportunity_hd.front())) {
        part.improvable_hd_traffic += static_cast<double>(ow.traffic);
      }
    }
  }

  // ---- Table 1: temporal classification at every threshold ---------------
  for (std::size_t t = 0; t < thresholds.degradation_rtt.size(); ++t) {
    const Duration th = thresholds.degradation_rtt[t];
    make_observations_into(
        series, scratch.obs,
        [&](int w) { return window_at(degr_by_window, w)->rtt.exceeds(th); },
        [&](int w) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr && dw->rtt.valid();
        },
        [&](int w, Bytes) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr ? dw->traffic : Bytes{0};
        });
    part.table1.add(AnalysisKind::kDegradationRtt, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }
  for (std::size_t t = 0; t < thresholds.degradation_hd.size(); ++t) {
    const double th = thresholds.degradation_hd[t];
    make_observations_into(
        series, scratch.obs,
        [&](int w) { return window_at(degr_by_window, w)->hd.exceeds(th); },
        [&](int w) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr && dw->hd.valid();
        },
        [&](int w, Bytes) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr ? dw->traffic : Bytes{0};
        });
    part.table1.add(AnalysisKind::kDegradationHd, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }
  for (std::size_t t = 0; t < thresholds.opportunity_rtt.size(); ++t) {
    const Duration th = thresholds.opportunity_rtt[t];
    make_observations_into(
        series, scratch.obs,
        [&](int w) { return window_at(opp_by_window, w)->rtt_opportunity(th); },
        [&](int w) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr && ow->rtt.valid();
        },
        [&](int w, Bytes total) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr ? ow->traffic : total;
        });
    part.table1.add(AnalysisKind::kOpportunityRtt, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }
  for (std::size_t t = 0; t < thresholds.opportunity_hd.size(); ++t) {
    const double th = thresholds.opportunity_hd[t];
    make_observations_into(
        series, scratch.obs,
        [&](int w) { return window_at(opp_by_window, w)->hd_opportunity(th); },
        [&](int w) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr && ow->hd.valid();
        },
        [&](int w, Bytes total) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr ? ow->traffic : total;
        });
    part.table1.add(AnalysisKind::kOpportunityHd, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }

  // ---- Table 2: opportunity by relationship pair -------------------------
  const Route& preferred_route = group.routes.front().route;
  for (const auto& ow : opp) {
    if (ow.rtt_alternate > 0 &&
        ow.rtt_opportunity(thresholds.opportunity_rtt.front())) {
      const Route& alt = group.routes[static_cast<std::size_t>(ow.rtt_alternate)].route;
      auto& row = out.table2_rtt[{preferred_route.relationship, alt.relationship}];
      const double tr = static_cast<double>(ow.traffic);
      row.absolute += tr;
      if (RoutingPolicy::lost_on_as_path(preferred_route, alt)) row.longer += tr;
      if (alt.prepend_count() > preferred_route.prepend_count()) row.prepended += tr;
    }
    if (ow.hd_alternate > 0 && ow.hd_opportunity(thresholds.opportunity_hd.front())) {
      const Route& alt = group.routes[static_cast<std::size_t>(ow.hd_alternate)].route;
      auto& row = out.table2_hd[{preferred_route.relationship, alt.relationship}];
      const double tr = static_cast<double>(ow.traffic);
      row.absolute += tr;
      if (RoutingPolicy::lost_on_as_path(preferred_route, alt)) row.longer += tr;
      if (alt.prepend_count() > preferred_route.prepend_count()) row.prepended += tr;
    }
  }

  // ---- Fig. 10: relationship-type comparisons ----------------------------
  struct RelComparison {
    WeightedCdf* cdf;
    bool applies;
    int alt_index;
  };
  const bool pref_is_peer = is_peer(preferred_route.relationship);
  const int alt_transit = first_alternate_of(group, Relationship::kTransit);
  const int alt_public = first_alternate_of(group, Relationship::kPublicPeer);
  const RelComparison comparisons[] = {
      {&out.fig10_peer_vs_transit, pref_is_peer && alt_transit > 0, alt_transit},
      {&out.fig10_transit_vs_transit,
       preferred_route.relationship == Relationship::kTransit && alt_transit > 0,
       alt_transit},
      {&out.fig10_private_vs_public,
       preferred_route.relationship == Relationship::kPrivatePeer && alt_public > 0,
       alt_public},
  };
  for (const auto& rc : comparisons) {
    if (!rc.applies) continue;
    for (const WindowSummary& ws : series.windows) {
      if (static_cast<int>(ws.routes) <= rc.alt_index) continue;
      const std::span<const CellSummary> routes = series.routes(ws);
      const Comparison cmp = compare_minrtt(
          routes[0], routes[static_cast<std::size_t>(rc.alt_index)], comparison);
      if (!cmp.valid()) continue;
      rc.cdf->add(cmp.diff.estimate,
                  std::max<double>(1, static_cast<double>(ws.traffic)));
    }
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Classifier knobs derived from the study span (shared by every reduce
/// path so a distributed run classifies exactly like an in-process one).
ClassifierConfig make_classifier_config(const DatasetConfig& config) {
  ClassifierConfig classifier_config;
  classifier_config.total_windows = config.days * 96;
  // Diurnal detection needs the pattern to repeat on multiple days; scale
  // the day requirement to the study span (the paper's 5 of 10 days).
  classifier_config.diurnal_days = std::max(2, (config.days + 1) / 2);
  return classifier_config;
}

/// The final normalizations: raw merged sums -> the fractions the paper
/// reports. One implementation for every reduce path (in-process, failable,
/// artifact-driven), so a distributed run cannot drift from a local one.
EdgeAnalysisResult finalize_edge_result(EdgePartial&& total) {
  EdgeAnalysisResult out = std::move(total.res);

  total.table1.normalize_into(out.table1);
  for (auto* rows : {&out.table2_rtt, &out.table2_hd}) {
    for (auto& [pair, row] : *rows) {
      row.absolute /= std::max(1.0, out.total_traffic);
      // longer/prepended stay relative to the pair's own opportunity below.
    }
  }
  for (auto* rows : {&out.table2_rtt, &out.table2_hd}) {
    for (auto& [pair, row] : *rows) {
      const double abs_traffic = row.absolute * std::max(1.0, out.total_traffic);
      if (abs_traffic > 0) {
        row.longer /= abs_traffic;
        row.prepended /= abs_traffic;
      }
    }
  }

  // Degradation analysis covers preferred-route traffic only (§2.2.3);
  // validity fractions are therefore relative to preferred-route traffic.
  out.degr_valid_traffic_rtt =
      total.degr_valid_rtt_traffic / std::max(1.0, total.preferred_traffic_total);
  out.degr_valid_traffic_hd =
      total.degr_valid_hd_traffic / std::max(1.0, total.preferred_traffic_total);
  out.opp_valid_traffic_rtt =
      total.opp_valid_rtt_traffic / std::max(1.0, out.total_traffic);
  out.opp_valid_traffic_hd =
      total.opp_valid_hd_traffic / std::max(1.0, out.total_traffic);
  out.rtt_within_3ms =
      total.within3_traffic / std::max(1.0, total.opp_valid_rtt_traffic);
  out.hd_within_0025 =
      total.within0025_traffic / std::max(1.0, total.opp_valid_hd_traffic);
  out.rtt_improvable_5ms =
      total.improvable_rtt_traffic / std::max(1.0, total.opp_valid_rtt_traffic);
  out.hd_improvable_005 =
      total.improvable_hd_traffic / std::max(1.0, total.opp_valid_hd_traffic);
  return out;
}

/// Everything a reduce task reads besides its world and its group; one
/// per EdgeReducer, one shared by every world of a sweep pass.
struct ReduceSettings {
  AnalysisThresholds thresholds;
  ComparisonConfig comparison;
  GoodputConfig goodput;
  FaultPlan faults;
  ClassifierConfig classifier_config;
};

/// The per-task body of every reduce (EdgeReducer and reduce_sweep_pass):
/// group `g` of the generator's world into `part`, analyzed from `blob`
/// when it summarizes, else cold-ingested under that world with the fresh
/// series serialized into `save` when one is given. Either way the
/// analysis reads the group's cell summaries; a blob is summarized straight
/// from its bytes, without building a GroupSeries. Returns whether the
/// blob served the group.
bool reduce_group(EdgeScratch& scratch, const DatasetGenerator& generator,
                  const ReduceSettings& s, std::size_t g, GroupBlobRef blob,
                  const EdgeReducer::SaveFn* save, EdgePartial& part) {
  const UserGroupProfile& group = generator.world().groups[g];
  const double z = confidence_z(s.comparison.alpha);
  if (!blob.empty()) {
    ByteReader r(blob.data, blob.size);
    if (summarize_group_series(r, z, scratch.cell, scratch.summary) &&
        r.remaining() == 0) {
      analyze_summary_into(scratch, scratch.summary, group, s.thresholds,
                           s.comparison, s.classifier_config, part);
      return true;
    }
    // Unusable blob: fall through to cold ingest for this group.
  }
  ingest_group(scratch, generator, group, s.goodput, s.faults, part.res.faults);
  if (save != nullptr && *save) {
    scratch.writer.clear();
    save_group_series(scratch.series, scratch.writer);
    std::string bytes = scratch.writer.data();  // keep writer capacity
    (*save)(g, std::move(bytes));
  }
  summarize_series(scratch.series, z, scratch.summary);
  analyze_summary_into(scratch, scratch.summary, group, s.thresholds, s.comparison,
                       s.classifier_config, part);
  return false;
}

/// Blob `i` of `reader` in the worker's own buffer, or an empty ref (cold
/// ingest) when the reader is not open or the read fails its checksum.
GroupBlobRef read_blob(const IngestArtifactReader& reader, std::size_t i,
                       EdgeScratch& scratch) {
  if (!reader.read(i, scratch.blob)) return GroupBlobRef{};
  return GroupBlobRef{scratch.blob.data(), scratch.blob.size()};
}

}  // namespace

// ---------------------------------------------------------------------------
// EdgeReducer: the group-id-order fold behind both run_edge_analysis and
// the multi-process coordinator (analysis/edge_reduce.h).
// ---------------------------------------------------------------------------

struct EdgeReducer::Impl {
  ReduceSettings settings;
  DatasetGenerator generator;
  EdgePartial total;
  std::uint64_t blob_groups{0};

  Impl(const World& world, const DatasetConfig& config,
       const AnalysisThresholds& thresholds, const ComparisonConfig& comparison,
       GoodputConfig goodput, const FaultPlan& faults)
      : settings{thresholds, comparison, goodput, faults,
                 make_classifier_config(config)},
        generator(world, config) {}

  /// The fold behind both reduce_range overloads. `blob_for(scratch, g, i)`
  /// returns group g's (range offset i) blob, or an empty ref to
  /// cold-ingest it; it runs inside the pool task, on the worker's scratch.
  template <typename BlobFor>
  void reduce(const ShardRange& range, const BlobFor& blob_for,
              const RuntimeOptions& runtime, RunStats* stats,
              const SaveFn* save) {
    FBEDGE_EXPECT(range.end <= generator.world().groups.size(),
                  "reduce range exceeds the world's group count");
    const std::size_t n = range.size();
    if (n == 0) return;
    // Per-group flags live in a side vector (each slot written by exactly
    // one task) so blob accounting never introduces cross-thread order
    // dependence.
    std::vector<std::uint8_t> from_blob(n, 0);
    auto partials = parallel_map_scratch<EdgeScratch>(
        n, runtime,
        [&](EdgeScratch& scratch, std::size_t i) {
          const std::size_t g = range.begin + i;
          EdgePartial part;
          from_blob[i] = reduce_group(scratch, generator, settings, g,
                                      blob_for(scratch, g, i), save, part);
          return part;
        },
        stats);
    // The determinism rule: fold in ascending group-id order, always.
    for (std::size_t i = 0; i < n; ++i) {
      total.merge(partials[i]);
    }
    for (std::size_t i = 0; i < n; ++i) blob_groups += from_blob[i];
  }
};

EdgeReducer::EdgeReducer(const World& world, const DatasetConfig& config,
                         const AnalysisThresholds& thresholds,
                         const ComparisonConfig& comparison,
                         GoodputConfig goodput, const FaultPlan& faults)
    : impl_(std::make_unique<Impl>(world, config, thresholds, comparison,
                                   goodput, faults)) {}

EdgeReducer::~EdgeReducer() = default;

void EdgeReducer::reduce_range(const ShardRange& range, const BlobFn& blob,
                               const RuntimeOptions& runtime, RunStats* stats,
                               const SaveFn* save) {
  impl_->reduce(
      range,
      [&blob](EdgeScratch&, std::size_t g, std::size_t) {
        return blob ? blob(g) : GroupBlobRef{};
      },
      runtime, stats, save);
}

void EdgeReducer::reduce_range(const ShardRange& range,
                               const IngestArtifactReader& reader,
                               const RuntimeOptions& runtime, RunStats* stats,
                               const SaveFn* save) {
  FBEDGE_EXPECT(reader.groups() == 0 || reader.groups() == range.size(),
                "artifact blob count differs from the reduce range");
  impl_->reduce(
      range,
      [&reader](EdgeScratch& scratch, std::size_t, std::size_t i) {
        return read_blob(reader, i, scratch);
      },
      runtime, stats, save);
}

std::uint64_t EdgeReducer::blob_groups() const { return impl_->blob_groups; }

EdgeAnalysisResult EdgeReducer::finish() {
  return finalize_edge_result(std::move(impl_->total));
}

// ---------------------------------------------------------------------------
// reduce_sweep_pass: a whole scenario sweep in one pool pass.
// ---------------------------------------------------------------------------

SweepPassResult reduce_sweep_pass(
    const World& baseline, const std::vector<SweepPassWorld>& scenarios,
    const DatasetConfig& config, const AnalysisThresholds& thresholds,
    const ComparisonConfig& comparison, GoodputConfig goodput,
    const IngestArtifactReader& baseline_blobs, const RuntimeOptions& runtime,
    RunStats* stats, const EdgeReducer::SaveFn* save) {
  const std::size_t n = baseline.groups.size();
  FBEDGE_EXPECT(baseline_blobs.groups() == 0 || baseline_blobs.groups() == n,
                "artifact blob count differs from the baseline group count");
  const ReduceSettings settings{thresholds, comparison, goodput, FaultPlan{},
                                make_classifier_config(config)};

  // World 0 is the baseline, world k + 1 scenario k. Tasks, and the slots
  // their partials land in, follow the same order: the n baseline groups,
  // then each scenario's affected groups, so task first_slot[k + 1] + i is
  // scenario k's i-th affected group.
  std::vector<DatasetGenerator> generators;
  generators.reserve(scenarios.size() + 1);
  generators.emplace_back(baseline, config);
  std::vector<std::size_t> first_slot{0, n};
  for (const SweepPassWorld& scen : scenarios) {
    FBEDGE_EXPECT(scen.world.groups.size() == n,
                  "a scenario world must keep the baseline's groups");
    FBEDGE_EXPECT(scen.blobs.empty() || scen.blobs.size() == scen.affected.size(),
                  "sweep blobs must be one per affected group");
    for (std::size_t i = 0; i < scen.affected.size(); ++i) {
      FBEDGE_EXPECT(scen.affected[i] < n &&
                        (i == 0 || scen.affected[i - 1] < scen.affected[i]),
                    "affected groups must be ascending ids in range");
    }
    generators.emplace_back(scen.world, config);
    first_slot.push_back(first_slot.back() + scen.affected.size());
  }

  struct Task {
    std::size_t world;  // 0 = baseline, k + 1 = scenario k
    std::size_t index;  // group id (baseline) or affected index (scenario)
    std::size_t group;
    double weight;      // sessions_per_window of the group in its world
  };
  std::vector<Task> tasks;
  tasks.reserve(first_slot.back());
  for (std::size_t w = 0; w < generators.size(); ++w) {
    const World& world = generators[w].world();
    const std::size_t count = first_slot[w + 1] - first_slot[w];
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t g = w == 0 ? i : scenarios[w - 1].affected[i];
      tasks.push_back({w, i, g, world.groups[g].sessions_per_window});
    }
  }

  // Heaviest first, dealt round-robin: ShardPlan gives worker s a block of
  // plan indices exactly as long as its deal (positions s, s + W, ...), so
  // plan index p of block s runs task order[(p - begin_s) * W + s]. Owners
  // pop their block front to back, heaviest first; thieves take the light
  // tail. The order changes only the schedule, never a result.
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tasks[a].weight > tasks[b].weight;
                   });
  ThreadPool pool(resolve_threads(runtime.threads));
  const auto workers = static_cast<std::size_t>(pool.threads());
  const ShardPlan plan = ShardPlan::make(tasks.size(), pool.threads());
  std::vector<std::size_t> dealt(tasks.size());
  for (int s = 0; s < plan.shard_count(); ++s) {
    const ShardRange block = plan.shard(s);
    for (std::size_t p = block.begin; p < block.end; ++p) {
      dealt[p] = order[(p - block.begin) * workers + static_cast<std::size_t>(s)];
    }
  }

  // Each task builds its own EdgeScratch and drops it when done. Kept per
  // worker instead, the arenas of the heaviest groups — which every worker
  // runs first — stay resident for the whole pass beside every partial: on
  // the whatif_sweep benchmark (4-core VM) that was 69 instead of 51 MiB
  // peak RSS for about 3% less wall time.
  std::vector<EdgePartial> partials(tasks.size());
  std::vector<std::uint8_t> from_blob(n, 0);  // one slot per baseline task
  const RunStats rs = pool.parallel_for(plan, [&](std::size_t p) {
    const Task& task = tasks[dealt[p]];
    EdgeScratch own;
    if (task.world == 0) {
      from_blob[task.index] = reduce_group(
          own, generators[0], settings, task.group,
          read_blob(baseline_blobs, task.index, own), save, partials[dealt[p]]);
      return;
    }
    const std::vector<std::string>& blobs = scenarios[task.world - 1].blobs;
    GroupBlobRef blob;
    if (!blobs.empty()) {
      blob = GroupBlobRef{blobs[task.index].data(), blobs[task.index].size()};
    }
    reduce_group(own, generators[task.world], settings, task.group, blob, nullptr,
                 partials[dealt[p]]);
  });
  if (stats) stats->accumulate(rs);

  // Group-id order, each affected group's own partial in place of the
  // baseline's (affected partials start at slot `first`).
  const auto fold = [&](const std::vector<std::size_t>& affected,
                        std::size_t first) {
    EdgePartial total;
    std::size_t next = 0;
    for (std::size_t g = 0; g < n; ++g) {
      const bool own = next < affected.size() && affected[next] == g;
      total.merge(partials[own ? first + next++ : g]);
    }
    return finalize_edge_result(std::move(total));
  };
  SweepPassResult out;
  out.baseline = fold({}, 0);
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    out.scenarios.push_back(fold(scenarios[k].affected, first_slot[k + 1]));
  }
  for (const std::uint8_t hit : from_blob) out.baseline_blob_groups += hit;
  return out;
}

void ingest_groups_to_blobs(
    const World& world, const DatasetConfig& config, GoodputConfig goodput,
    const std::vector<std::size_t>& groups, const RuntimeOptions& runtime,
    const std::function<void(std::size_t group, std::string&& blob)>& sink,
    RunStats* stats, std::size_t chunk_groups) {
  FBEDGE_EXPECT(chunk_groups >= 1, "ingest chunk must hold at least one group");
  DatasetGenerator generator(world, config);
  const FaultPlan no_faults;
  for (std::size_t at = 0; at < groups.size(); at += chunk_groups) {
    const std::size_t n = std::min(chunk_groups, groups.size() - at);
    auto blobs = parallel_map_scratch<EdgeScratch>(
        n, runtime,
        [&](EdgeScratch& scratch, std::size_t i) {
          const std::size_t g = groups[at + i];
          FBEDGE_EXPECT(g < world.groups.size(),
                        "ingest group id exceeds the world's group count");
          FaultCounters none;
          ingest_group(scratch, generator, world.groups[g], goodput, no_faults,
                       none);
          scratch.writer.clear();
          save_group_series(scratch.series, scratch.writer);
          return std::string(scratch.writer.data());
        },
        stats);
    for (std::size_t i = 0; i < n; ++i) sink(groups[at + i], std::move(blobs[i]));
  }
}

EdgeAnalysisResult run_edge_analysis(const World& world, const DatasetConfig& config,
                                     const AnalysisThresholds& thresholds,
                                     const ComparisonConfig& comparison,
                                     GoodputConfig goodput,
                                     const RuntimeOptions& runtime,
                                     RunStats* stats, const FaultPlan& faults,
                                     const IngestCacheOptions& cache,
                                     const ScenarioPack& scenario) {
  // Scenario runs recurse with the perturbed world and an empty pack; the
  // scenario-free path below is exactly the pre-scenario code, so an empty
  // pack is byte-identical to a build without the subsystem.
  if (!scenario.empty()) {
    FaultCounters applied;
    const World perturbed = apply_scenario(world, scenario, &applied);
    EdgeAnalysisResult out =
        run_edge_analysis(perturbed, config, thresholds, comparison, goodput,
                          runtime, stats, faults, cache);
    out.faults.accumulate(applied);
    if (stats) stats->faults.accumulate(applied);
    return out;
  }

  // Faulted runs bypass the cache entirely — no read, no write. A faulted
  // series must never be persisted (it would poison fault-free runs), and
  // serving a clean artifact to a faulted run would silently disable the
  // injection under test.
  const bool use_cache = cache.enabled() && !faults.enabled();
  const std::size_t group_count = world.groups.size();
  std::uint64_t cache_key = 0;
  std::string artifact_path;
  IngestArtifactReader artifact;
  bool warm = false;
  if (use_cache) {
    cache_key = ingest_cache_key(world, config, goodput);
    artifact_path = ingest_artifact_path(cache.dir, cache_key);
    const auto t0 = std::chrono::steady_clock::now();
    warm = artifact.open_index(artifact_path, cache_key, group_count);
    if (stats) stats->cache_load_seconds += seconds_since(t0);
  }

  if (!faults.runtime_faults()) {
    // One EdgeReducer pass over [0, n): per-worker EdgeScratch arenas
    // persist across every group a worker processes, and partials fold in
    // group-id order — the result does not depend on the thread count.
    const ShardRange all{0, group_count};
    if (warm) {
      // Each pool task reads and checks its group's blob, so every blob is
      // read once, where it is used. The artifact is served whole or not
      // at all: if any blob failed its checksum or load_group_series (that
      // group cold-ingested in the pass), the run is redone cold below and
      // the artifact rewritten.
      EdgeReducer reducer(world, config, thresholds, comparison, goodput, faults);
      reducer.reduce_range(all, artifact, runtime, stats);
      if (stats) stats->cache_read_bytes += artifact.bytes_read();
      if (reducer.blob_groups() == group_count) {
        if (stats) stats->cache_hits += group_count;
        return reducer.finish();
      }
    }
    // Cold: on a cache-enabled run each group additionally serializes its
    // series into `blobs[g]` (each slot written by exactly one task), so
    // warm, cold, and uncached runs stay byte-identical.
    EdgeReducer reducer(world, config, thresholds, comparison, goodput, faults);
    std::vector<std::string> blobs;
    EdgeReducer::SaveFn save_fn;
    if (use_cache) {
      blobs.resize(group_count);
      save_fn = [&blobs](std::size_t g, std::string&& blob) {
        blobs[g] = std::move(blob);
      };
    }
    reducer.reduce_range(all, EdgeReducer::BlobFn{}, runtime, stats,
                         use_cache ? &save_fn : nullptr);
    if (use_cache) {
      const auto t0 = std::chrono::steady_clock::now();
      const bool written = write_ingest_artifact(artifact_path, cache_key, blobs);
      if (stats) {
        stats->cache_misses += group_count;
        stats->cache_save_seconds += seconds_since(t0);
        if (!written) ++stats->cache_write_failures;
      }
    }
    return reducer.finish();
  }

  // Shard tasks can abort; each group gets the plan's attempt budget and
  // is skipped (reported as lost) when every attempt fails. The abort
  // decision is a pure function of (plan, group, attempt), so which
  // groups are lost — and hence the merged result — is identical for any
  // thread count.
  const ReduceSettings settings{thresholds, comparison, goodput, faults,
                                make_classifier_config(config)};
  DatasetGenerator generator(world, config);
  RunStats local;
  EdgePartial total = shard_map_reduce_failable(
      world, runtime,
      RetryPolicy{faults.task_max_attempts, faults.task_backoff_seconds},
      EdgePartial{},
      [&](const UserGroupProfile& group, std::size_t g,
          int attempt) -> std::optional<EdgePartial> {
        if (task_abort_decision(faults, group_fault_key(group.key), attempt)) {
          return std::nullopt;
        }
        // Fault runs are not perf-critical; a per-attempt scratch keeps
        // the failable path simple.
        EdgeScratch scratch;
        EdgePartial part;
        reduce_group(scratch, generator, settings, g, GroupBlobRef{}, nullptr, part);
        return part;
      },
      [](EdgePartial& acc, EdgePartial&& part, std::size_t) { acc.merge(part); },
      [](EdgePartial&, std::size_t) { /* lost group: contributes nothing */ },
      &local);
  total.res.faults.accumulate(local.faults);
  if (stats) stats->accumulate(local);
  return finalize_edge_result(std::move(total));
}

}  // namespace fbedge
