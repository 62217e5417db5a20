#include "analysis/edge_analysis.h"

#include <algorithm>
#include <array>
#include <atomic>
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

/// Cold-ingest arenas for one group: every buffer here is cleared (not
/// shrunk) per window, so once an arena reaches the group's high-water mark
/// the generate -> coalesce -> HD -> aggregate loop runs without
/// per-session allocations. reduce_group builds one for each group it
/// ingests cold and drops it when the group is done, so the arenas of the
/// heaviest groups do not stay resident for the whole pass;
/// ingest_groups_to_blobs keeps one per pool worker.
/// Either way a result never depends on the scratch's history, because
/// every field is rebuilt before use.
struct IngestScratch {
  SessionBatch batch;
  CoalescedBatch coalesced;
  std::vector<SessionHd> hd;
  /// Faulted runs only: copies of each row the fault stage emits, and the
  /// coalesce mask (hosting rows and rows with no copy).
  std::vector<std::uint8_t> copies;
  std::vector<std::uint8_t> skip;
  /// The group's aggregation series. Where a scratch serves several
  /// groups, route cells return to `pool` between them with their t-digest
  /// buffers intact; a recycled series is behaviorally identical to a
  /// fresh one.
  GroupSeries series;
  RouteAggPool pool;
  /// Serialization buffer for the ingest-artifact cache's cold path.
  ByteWriter writer;
};

/// What a reduce task reads and analyzes a group in: one per pool worker
/// (run_reduce_tasks), kept across the tasks it runs, and small next to
/// the ingest arenas — a read chunk, a summary, and per-window analysis
/// buffers. Every buffer is rebuilt before use, so a result never depends
/// on the tasks that ran before it.
struct AnalysisScratch {
  /// The warm path's read buffer (IngestArtifactReader::parse): one chunk
  /// of the blob being summarized, or the longest single take, never a
  /// whole blob.
  std::string chunk;
  /// The group's cell summaries: what every analysis pass reads.
  SeriesSummary summary;
  /// Analysis-pass buffers, cleared per group.
  std::vector<WindowObservation> obs;
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
///
/// One columnar loop for every run: one window of sessions at a time
/// through (fault stage ->) coalesce -> HD -> aggregate, all in scratch
/// arenas. Rows arrive in the same order generate_group emits sessions and
/// carry bit-identical values (same simulation template, same RNG stream).
/// The window index is computed per row from established_at: a session of
/// batch w starts at w * 900 + U[0, 900), which can round up onto the next
/// boundary, so it lands in window w or w + 1. Once batch w is aggregated,
/// every window up to w is therefore final and is sealed: its digests are
/// compressed — the compress save() and the summaries would run on the same
/// state, so no bit changes — and give back their add buffers, so ingest
/// holds buffers for the open windows only.
void ingest_group(IngestScratch& scratch, const DatasetGenerator& generator,
                  const UserGroupProfile& group, const GoodputConfig& goodput,
                  const FaultPlan& faults, FaultCounters& fault_counters) {
  GroupSeries& series = scratch.series;
  scratch.pool.recycle(series);
  series.continent = group.continent;
  // The fault stage sits where the load balancer hands records to the
  // analytics tier: every row passes it, hosting rows included, and rows
  // it rejects or mutates never reach metric extraction as they were.
  std::optional<SamplerFaultStage> stage;
  if (faults.sampler_faults()) stage.emplace(faults, group);
  int sealed_through = -1;    // every window <= this one is sealed
  std::size_t unsealed = 0;   // first series entry not yet sealed
  generator.generate_group_batched(
      group, scratch.batch, [&](int w, SessionBatch& b) {
        const std::size_t rows = b.size();
        // Hosting-provider rows (the §2.2.4 keep_for_analysis filter) are
        // skipped before coalescing ever sees them.
        const std::uint8_t* skip = b.hosting.data();
        if (stage) {
          stage->apply(b, scratch.copies);
          scratch.skip.resize(rows);
          for (std::size_t i = 0; i < rows; ++i) {
            scratch.skip[i] = b.hosting[i] != 0 || scratch.copies[i] == 0;
          }
          skip = scratch.skip.data();
        }
        coalesce_batch(b, skip, scratch.coalesced);
        scratch.hd.resize(rows);
        evaluate_hd_batch(scratch.coalesced.txns.data(),
                          scratch.coalesced.offset.data(),
                          scratch.coalesced.count.data(), rows, scratch.hd.data(),
                          goodput);
        for (std::size_t i = 0; i < rows; ++i) {
          if (skip[i] != 0) continue;
          const int window = window_index(b.established_at[i]);
          FBEDGE_EXPECT(window > sealed_through, "a row landed in a sealed window");
          RouteWindowAgg& cell =
              series.windows[window].route_pooled(b.route_index[i], scratch.pool);
          const std::optional<double> hdratio = scratch.hd[i].hdratio();
          // A duplicated record is added twice in a row, as emitted.
          for (int c = stage ? scratch.copies[i] : 1; c > 0; --c) {
            cell.add_session(b.min_rtt[i], hdratio, b.total_bytes[i]);
          }
        }
        // No later row reaches a window up to w. One bound serves the seal
        // and the check above, and windows only open above it, so the
        // sealed ones stay a prefix of the series.
        sealed_through = w;
        for (auto it = series.windows.begin() + static_cast<std::ptrdiff_t>(unsealed);
             it != series.windows.end() && it->first <= sealed_through;
             ++it, ++unsealed) {
          for (RouteWindowAgg& cell : it->second.routes) cell.seal();
        }
      });
  if (stage) fault_counters.accumulate(stage->counters());
  if (faults.agg_faults()) {
    AggFaultStage(faults).apply(series, group_fault_key(group.key), fault_counters);
  }
}

/// The analysis half: everything downstream of the per-group series —
/// degradation, opportunity, temporal classification, Tables 1-2, Fig. 10.
/// Reads only the series' cell summaries, so it runs identically on a
/// freshly ingested series and on a blob from the artifact cache.
void analyze_summary_into(AnalysisScratch& scratch, const SeriesSummary& series,
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
/// reports. One implementation for every reduce (in-process, swept,
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

/// The per-task body of every reduce (run_reduce_tasks): group `g` of the
/// generator's world into `part`. When `warm`, `scratch.summary` already
/// holds the group's summary, taken from its blob; else the group is
/// cold-ingested under that world, in arenas of its own, with the fresh
/// series serialized into `save` when one is given. Either way the
/// analysis reads the group's cell summaries.
void reduce_group(AnalysisScratch& scratch, const DatasetGenerator& generator,
                  const ReduceSettings& s, std::size_t g, bool warm,
                  const EdgeReducer::SaveFn* save, EdgePartial& part) {
  const UserGroupProfile& group = generator.world().groups[g];
  if (!warm) {
    IngestScratch ingest;
    ingest_group(ingest, generator, group, s.goodput, s.faults, part.res.faults);
    if (save != nullptr && *save) {
      save_group_series(ingest.series, ingest.writer);
      (*save)(g, ingest.writer.take());
    }
    summarize_series(ingest.series, confidence_z(s.comparison.alpha), scratch.summary);
  }
  analyze_summary_into(scratch, scratch.summary, group, s.thresholds, s.comparison,
                       s.classifier_config, part);
}

/// Summarizes a blob held in memory (the BlobFn overload, the sweep
/// fleet's blobs) into `summary`: true when the blob parsed whole. An
/// empty ref summarizes nothing.
bool summarize_blob(GroupBlobRef blob, double z, SeriesSummary& summary) {
  if (blob.empty()) return false;
  ByteReader r(blob.data, blob.size);
  return summarize_group_series(r, z, summary) && r.remaining() == 0;
}

/// Summarizes blob `i` of `reader` into the worker's `scratch.summary`,
/// streamed through its chunk buffer: true when the blob parsed whole and
/// matched its checksum, false (cold ingest) when the reader is not open
/// or the read fails.
bool summarize_blob(const IngestArtifactReader& reader, std::size_t i, double z,
                    AnalysisScratch& scratch) {
  return reader.parse(i, scratch.chunk, [&](ByteReader& r) {
    return summarize_group_series(r, z, scratch.summary);
  });
}

/// One reduce task: group `group` of `generator`'s world. `save`, when
/// non-null, receives the group's series if it is cold-ingested.
struct ReduceTask {
  const DatasetGenerator* generator;
  std::size_t group;
  const EdgeReducer::SaveFn* save;
};

/// What one run_reduce_tasks pass leaves, each vector in task order.
struct ReducePass {
  std::vector<EdgePartial> partials;
  std::vector<std::uint8_t> from_blob;  // 1 = the task's blob served it
  std::vector<std::uint8_t> lost;       // 1 = every attempt aborted
  FaultCounters faults;                 // task aborts, retries, lost groups
};

/// The one pool pass behind every edge reduce: EdgeReducer's ranges,
/// reduce_sweep_pass's worlds, and the task-abort retries of both. Tasks
/// are weighted by their group's sessions_per_window in its own world and
/// dealt heaviest first (deal_heaviest_first), so the slow groups start at
/// once and the light ones fill in behind them. A cold attempt ingests in
/// arenas of its own and drops them when done (reduce_group): kept per
/// worker instead, the arenas of the heaviest groups, which every worker
/// runs first, stay resident for the whole pass beside every partial — on
/// the whatif_sweep benchmark (4-core VM) that was 69 instead of 51 MiB
/// peak RSS for about 3% less wall time. The AnalysisScratch, read chunk
/// included, is one per worker and kept across the tasks it runs: a warm
/// pass then allocates each worker's chunk and summary buffers once, and
/// no worker holds a whole blob. An attempt aborts when the plan's
/// task_abort_decision says so, and the pool retries it under the plan's
/// attempt budget; a task whose every attempt aborted is flagged lost.
/// `summarize(scratch, t, z)` summarizes task t's blob into the running
/// worker's `scratch.summary` and returns true, or returns false to
/// cold-ingest the group. Which attempts abort is a pure function of
/// (plan, group, attempt), and the deal changes only the schedule, so the
/// pass leaves the same partials at any thread count.
template <typename SummarizeFn>
ReducePass run_reduce_tasks(const std::vector<ReduceTask>& tasks,
                            const ReduceSettings& s, const RuntimeOptions& runtime,
                            const SummarizeFn& summarize, RunStats* stats) {
  ReducePass pass;
  pass.partials.resize(tasks.size());
  pass.from_blob.assign(tasks.size(), 0);
  pass.lost.assign(tasks.size(), 0);
  std::vector<double> weights(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    weights[t] = tasks[t].generator->world().groups[tasks[t].group].sessions_per_window;
  }
  ThreadPool pool(resolve_threads(runtime.threads));
  const std::vector<std::size_t> dealt = deal_heaviest_first(weights, pool.threads());
  std::vector<AnalysisScratch> scratch(static_cast<std::size_t>(pool.threads()));
  const double z = confidence_z(s.comparison.alpha);
  std::vector<std::uint8_t> failed;  // by plan index
  const RunStats rs = pool.parallel_for_failable(
      ShardPlan::make(tasks.size(), pool.threads()),
      [&](int worker, std::size_t p, int attempt) {
        const std::size_t t = dealt[p];
        const ReduceTask& task = tasks[t];
        const UserGroupProfile& group = task.generator->world().groups[task.group];
        if (task_abort_decision(s.faults, group_fault_key(group.key), attempt)) {
          return false;
        }
        AnalysisScratch& mine = scratch[static_cast<std::size_t>(worker)];
        const bool warm = summarize(mine, t, z);
        pass.from_blob[t] = warm;
        reduce_group(mine, *task.generator, s, task.group, warm, task.save,
                     pass.partials[t]);
        return true;
      },
      RetryPolicy{s.faults.task_max_attempts, s.faults.task_backoff_seconds},
      &failed);
  for (std::size_t p = 0; p < failed.size(); ++p) pass.lost[dealt[p]] = failed[p];
  pass.faults = rs.faults;
  if (stats) stats->accumulate(rs);
  return pass;
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

  /// The fold behind both reduce_range overloads: one run_reduce_tasks
  /// pass over the range, then its partials in ascending group-id order,
  /// always, each lost group skipped. `summarize(scratch, i, z)`
  /// summarizes group range.begin + i's blob, or returns false to
  /// cold-ingest it.
  template <typename SummarizeFn>
  void reduce(const ShardRange& range, const SummarizeFn& summarize,
              const RuntimeOptions& runtime, RunStats* stats,
              const SaveFn* save) {
    FBEDGE_EXPECT(range.end <= generator.world().groups.size(),
                  "reduce range exceeds the world's group count");
    if (range.empty()) return;
    std::vector<ReduceTask> tasks;
    tasks.reserve(range.size());
    for (std::size_t g = range.begin; g < range.end; ++g) {
      tasks.push_back({&generator, g, save});
    }
    const ReducePass pass = run_reduce_tasks(tasks, settings, runtime, summarize, stats);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!pass.lost[i]) total.merge(pass.partials[i]);
      blob_groups += pass.from_blob[i];
    }
    total.res.faults.accumulate(pass.faults);
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
      [&](AnalysisScratch& scratch, std::size_t i, double z) {
        return blob && summarize_blob(blob(range.begin + i), z, scratch.summary);
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
      [&reader](AnalysisScratch& scratch, std::size_t i, double z) {
        return summarize_blob(reader, i, z, scratch);
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
  // then each scenario's affected groups, so task first_slot[k] + i is
  // scenario k's i-th affected group, and held[first_slot[k] + i - n] its
  // fleet blob.
  std::vector<DatasetGenerator> generators;
  generators.reserve(scenarios.size() + 1);
  generators.emplace_back(baseline, config);
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
  }
  std::vector<ReduceTask> tasks;
  for (std::size_t g = 0; g < n; ++g) tasks.push_back({&generators[0], g, save});
  std::vector<std::size_t> first_slot;
  std::vector<GroupBlobRef> held;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    const SweepPassWorld& scen = scenarios[k];
    first_slot.push_back(tasks.size());
    for (std::size_t i = 0; i < scen.affected.size(); ++i) {
      tasks.push_back({&generators[k + 1], scen.affected[i], nullptr});
      held.push_back(scen.blobs.empty()
                         ? GroupBlobRef{}
                         : GroupBlobRef{scen.blobs[i].data(), scen.blobs[i].size()});
    }
  }
  const ReducePass pass = run_reduce_tasks(
      tasks, settings, runtime,
      [&](AnalysisScratch& scratch, std::size_t t, double z) {
        return t < n ? summarize_blob(baseline_blobs, t, z, scratch)
                     : summarize_blob(held[t - n], z, scratch.summary);
      },
      stats);

  // Group-id order, each affected group's own partial in place of the
  // baseline's (affected partials start at slot `first`). The sweep's plan
  // injects no faults, so no task is lost.
  const auto fold = [&](const std::vector<std::size_t>& affected,
                        std::size_t first) {
    EdgePartial total;
    std::size_t next = 0;
    for (std::size_t g = 0; g < n; ++g) {
      const bool own = next < affected.size() && affected[next] == g;
      total.merge(pass.partials[own ? first + next++ : g]);
    }
    return finalize_edge_result(std::move(total));
  };
  SweepPassResult out;
  out.baseline = fold({}, 0);
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    out.scenarios.push_back(fold(scenarios[k].affected, first_slot[k]));
  }
  for (std::size_t g = 0; g < n; ++g) out.baseline_blob_groups += pass.from_blob[g];
  return out;
}

void ingest_groups_to_blobs(
    const World& world, const DatasetConfig& config, GoodputConfig goodput,
    const std::vector<std::size_t>& groups, const RuntimeOptions& runtime,
    const std::function<void(std::size_t i, std::string_view blob)>& sink,
    RunStats* stats) {
  DatasetGenerator generator(world, config);
  const FaultPlan no_faults;
  ThreadPool pool(resolve_threads(runtime.threads));
  std::vector<IngestScratch> scratch(static_cast<std::size_t>(pool.threads()));
  const RunStats rs = pool.parallel_for_workers(
      ShardPlan::make(groups.size(), pool.threads()),
      [&](int worker, std::size_t i) {
        const std::size_t g = groups[i];
        FBEDGE_EXPECT(g < world.groups.size(),
                      "ingest group id exceeds the world's group count");
        IngestScratch& mine = scratch[static_cast<std::size_t>(worker)];
        FaultCounters none;
        ingest_group(mine, generator, world.groups[g], goodput, no_faults, none);
        mine.writer.clear();
        save_group_series(mine.series, mine.writer);
        sink(i, mine.writer.data());
      });
  if (stats) stats->accumulate(rs);
}

void run_cached_pass(const World& world, const DatasetConfig& config,
                     const GoodputConfig& goodput,
                     const IngestCacheOptions& cache, RunStats* stats,
                     const CachedPassFn& pass) {
  IngestArtifactReader artifact;
  if (!cache.enabled()) {
    pass(artifact, nullptr);
    return;
  }
  const std::uint64_t n = world.groups.size();
  const std::uint64_t key = ingest_cache_key(world, config, goodput);
  const std::string path = ingest_artifact_path(cache.dir, key);
  const auto t0 = std::chrono::steady_clock::now();
  const bool warm = artifact.open_index(path, key, n);
  if (stats) stats->cache_load_seconds += seconds_since(t0);
  // Each pool task reads and checks its group's blob, so every blob is
  // read once, where it is used. A blob that failed its checksum or its
  // summary cold-ingested its group; then the pass is redone cold.
  if (warm) {
    const std::uint64_t served = pass(artifact, nullptr);
    if (stats) stats->cache_read_bytes += artifact.bytes_read();
    if (served == n) {
      if (stats) stats->cache_hits += n;
      return;
    }
    artifact.close();
  }
  // Each task puts its group's blob as soon as it is ingested; the writer
  // orders the artifact by group id, so its bytes do not depend on the
  // thread count. A writer that could not open drops every put and fails
  // its finish(). The save time is the time inside every put plus finish().
  const auto t1 = std::chrono::steady_clock::now();
  IngestArtifactWriter writer;
  writer.open(path, key, n);
  std::atomic<double> save_seconds{seconds_since(t1)};
  const EdgeReducer::SaveFn save = [&](std::size_t g, std::string&& blob) {
    const auto t = std::chrono::steady_clock::now();
    writer.put(g, blob);
    save_seconds += seconds_since(t);
  };
  pass(artifact, &save);
  const auto t2 = std::chrono::steady_clock::now();
  const bool written = writer.finish();
  if (stats) {
    stats->cache_misses += n;
    stats->cache_save_seconds += save_seconds.load() + seconds_since(t2);
    if (!written) ++stats->cache_write_failures;
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
  // injection under test. One EdgeReducer pass over [0, n), task-abort
  // retries included: partials fold in group-id order at any thread count.
  EdgeAnalysisResult out;
  run_cached_pass(
      world, config, goodput, faults.enabled() ? IngestCacheOptions{} : cache,
      stats, [&](const IngestArtifactReader& reader, const EdgeReducer::SaveFn* save) {
        EdgeReducer reducer(world, config, thresholds, comparison, goodput, faults);
        reducer.reduce_range(ShardRange{0, world.groups.size()}, reader, runtime,
                             stats, save);
        out = reducer.finish();
        return reducer.blob_groups();
      });
  return out;
}

}  // namespace fbedge
