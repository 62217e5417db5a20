// Degradation / routing-opportunity sweep over the full dataset (§5, §6).
//
// One pass over the synthetic world per run: each user group's 10-day
// series is generated, aggregated into (window x route) cells, analyzed for
// degradation (vs the group baseline) and opportunity (preferred vs best
// alternate), classified temporally at each threshold, and folded into the
// outputs of Fig. 8, Fig. 9, Fig. 10, Table 1, and Table 2.
#pragma once

#include <map>
#include <vector>

#include "agg/classifier.h"
#include "agg/degradation.h"
#include "agg/opportunity.h"
#include "analysis/ingest_cache.h"
#include "analysis/session_metrics.h"
#include "faultsim/fault_plan.h"
#include "runtime/pipeline.h"
#include "scenario/scenario.h"
#include "stats/cdf.h"
#include "util/geo.h"
#include "workload/generator.h"

namespace fbedge {

/// Thresholds studied in Table 1.
struct AnalysisThresholds {
  std::vector<Duration> degradation_rtt{0.005, 0.010, 0.020, 0.050};
  std::vector<double> degradation_hd{0.05, 0.10, 0.20, 0.50};
  std::vector<Duration> opportunity_rtt{0.005, 0.010};
  std::vector<double> opportunity_hd{0.05};
};

/// Which of the four Table 1 analyses a record belongs to.
enum class AnalysisKind : std::uint8_t {
  kDegradationRtt,
  kDegradationHd,
  kOpportunityRtt,
  kOpportunityHd,
};

constexpr const char* to_string(AnalysisKind k) {
  switch (k) {
    case AnalysisKind::kDegradationRtt: return "Degradation MinRTT_P50";
    case AnalysisKind::kDegradationHd: return "Degradation HDratio_P50";
    case AnalysisKind::kOpportunityRtt: return "Opportunity MinRTT_P50";
    case AnalysisKind::kOpportunityHd: return "Opportunity HDratio_P50";
  }
  return "?";
}

/// One Table 1 cell: traffic fractions for a (analysis, threshold, class,
/// continent) combination. `group_traffic` weights user groups by total
/// traffic (the paper's blue column); `event_traffic` is the traffic sent
/// during event windows (orange column). Both are normalized by the
/// classified traffic of the corresponding scope (overall or continent).
struct Table1Cell {
  double group_traffic{0};
  double event_traffic{0};
};

/// Table 2 row: opportunity by (preferred, alternate) relationship pair.
struct Table2Row {
  double absolute{0};   // fraction of total traffic with opportunity
  double longer{0};     // ... where the alternate lost on AS-path length
  double prepended{0};  // ... where the alternate is more prepended
};

struct EdgeAnalysisResult {
  // ---- Fig. 8: degradation CDFs (traffic-weighted, one point per valid
  // aggregation). The lower/upper CDFs are the CI-bound distributions
  // rendered as the shaded band in the paper.
  WeightedCdf degr_rtt, degr_rtt_lower, degr_rtt_upper;   // seconds
  WeightedCdf degr_hd, degr_hd_lower, degr_hd_upper;
  /// Fraction of traffic with valid aggregations (paper: 94.8% / 89.5%).
  double degr_valid_traffic_rtt{0};
  double degr_valid_traffic_hd{0};

  // ---- Fig. 9: preferred-vs-alternate difference CDFs.
  // RTT: preferred - alternate (positive = alternate faster);
  // HD: alternate - preferred (positive = alternate better).
  WeightedCdf opp_rtt, opp_rtt_lower, opp_rtt_upper;
  WeightedCdf opp_hd, opp_hd_lower, opp_hd_upper;
  double opp_valid_traffic_rtt{0};
  double opp_valid_traffic_hd{0};

  // ---- Headline §6.2 numbers.
  /// Traffic fraction whose preferred MinRTT_P50 is within 3 ms of optimal.
  double rtt_within_3ms{0};
  /// Traffic fraction whose preferred HDratio_P50 is within 0.025 of optimal.
  double hd_within_0025{0};
  /// Traffic fraction improvable by >= 5 ms / >= 0.05.
  double rtt_improvable_5ms{0};
  double hd_improvable_005{0};

  // ---- Table 1.
  // key: (kind, threshold index, class, continent index or -1 for overall)
  std::map<std::tuple<AnalysisKind, int, TemporalClass, int>, Table1Cell> table1;

  // ---- Table 2 (at the first opportunity threshold).
  std::map<std::pair<Relationship, Relationship>, Table2Row> table2_rtt;
  std::map<std::pair<Relationship, Relationship>, Table2Row> table2_hd;

  // ---- Fig. 10: MinRTT_P50 difference (preferred - alternate) by
  // relationship comparison, traffic-weighted.
  WeightedCdf fig10_peer_vs_transit;
  WeightedCdf fig10_transit_vs_transit;
  WeightedCdf fig10_private_vs_public;

  double total_traffic{0};
  int groups_analyzed{0};
  /// Sessions aggregated across every (window, route) cell analyzed — the
  /// throughput denominator for sessions/s scale tracking. Counted from
  /// the series (not at ingest), so warm/artifact-served runs report the
  /// same number as cold runs.
  std::uint64_t sessions_analyzed{0};

  /// Injected-fault tally for this run (all zeros on a fault-free run):
  /// sampler/aggregation counters summed over groups in group-id order,
  /// plus the runtime layer's abort/retry/loss counts.
  FaultCounters faults;
};

/// Runs the full §5/§6 sweep, sharded by user group across
/// `runtime.threads` workers. Per-group contributions are folded in
/// group-id order, so the result is byte-identical for any thread count.
///
/// `faults` injects a deterministic chaos schedule (faultsim/): invalid
/// records are rejected at ingest, dropped windows and silenced groups are
/// excluded from rollups and classification (they become kExcluded /
/// invalid-window cases under the §3.4 validity rules, never crashes), and
/// shard aborts are retried up to the plan's attempt budget with lost
/// groups skipped and reported. The default (zeroed) plan takes exactly
/// the fault-free code path: outputs are byte-identical to a build without
/// faultsim in the loop, at any thread count.
///
/// `cache` (analysis/ingest_cache.h) persists the per-group ingest product
/// so later runs with the same (world, config, goodput) skip session
/// generation entirely. Warm runs are byte-identical to cold runs at any
/// thread count. An artifact is served whole or not at all: any unusable
/// artifact, or one blob that fails its checksum or its load during the
/// warm pass, silently falls back to a cold run that rewrites it.
/// Runs with any fault injected bypass the cache completely (no read, no
/// write) — faulted series must never poison or be served from the cache.
///
/// `scenario` (scenario/scenario.h) runs the sweep against
/// apply_scenario(world, scenario) instead of `world`: a declarative
/// what-if (PoP drain, transit depref, flash crowd, cable cut) whose
/// applied-perturbation counts land in the result's FaultCounters
/// (scenario_* fields). An empty pack takes exactly the scenario-free code
/// path — byte-identical output at any thread count. Scenario runs keep
/// the cache enabled: ingest_cache_key hashes the (perturbed) world
/// contents, so baseline and scenario artifacts can never collide.
EdgeAnalysisResult run_edge_analysis(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds = {},
    const ComparisonConfig& comparison = {}, GoodputConfig goodput = {},
    const RuntimeOptions& runtime = RuntimeOptions::sequential(),
    RunStats* stats = nullptr, const FaultPlan& faults = {},
    const IngestCacheOptions& cache = {}, const ScenarioPack& scenario = {});

}  // namespace fbedge
