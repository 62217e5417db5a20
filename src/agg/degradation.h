// Performance-degradation analysis over time (§3.4, §5).
//
// For each user group, baseline performance is the 10th percentile of the
// per-window MinRTT_P50 series of the preferred route (90th percentile for
// HDratio_P50) — i.e. the group at its best. Each window is then compared
// against the baseline window with a difference-of-medians CI; the window
// is degraded at threshold X when the CI lower bound exceeds X.
#pragma once

#include <vector>

#include "agg/comparison.h"

namespace fbedge {

/// Degradation verdicts for one window of one user group.
struct DegradationWindow {
  int window{0};
  /// Preferred-route traffic in this window (Table 1 weighting).
  Bytes traffic{0};
  /// current - baseline MinRTT_P50 (positive = slower than baseline).
  Comparison rtt;
  /// baseline - current HDratio_P50 (positive = worse than baseline).
  Comparison hd;
};

struct DegradationResult {
  std::vector<DegradationWindow> windows;
  /// Window indices whose aggregations serve as the baselines.
  int baseline_rtt_window{-1};
  int baseline_hd_window{-1};
  Duration baseline_minrtt_p50{0};
  double baseline_hdratio_p50{0};
};

/// Reusable buffers for analyze_degradation_into: cleared (never shrunk)
/// per call, so a per-worker instance makes the degradation pass
/// allocation-free once warm.
struct DegradationScratch {
  /// Baseline-candidate (metric, window) pairs.
  std::vector<std::pair<double, int>> values;
  /// The series' cell summaries, for the GroupSeries overloads.
  SeriesSummary summary;
};

/// Analyzes the preferred route (index 0) of one group's series.
/// Windows without preferred-route data are skipped. Requires at least
/// `config.min_samples` in the baseline window; otherwise every comparison
/// is invalid.
DegradationResult analyze_degradation(const GroupSeries& series,
                                      const ComparisonConfig& config);

/// As analyze_degradation, but reusing `scratch` and overwriting `out`
/// in place (out.windows is cleared, not reallocated). Summarizes the
/// series at config.alpha into scratch.summary and runs the overload below.
void analyze_degradation_into(const GroupSeries& series, const ComparisonConfig& config,
                              DegradationScratch& scratch, DegradationResult& out);

/// The degradation pass over a series' summaries, taken at
/// confidence_z(config.alpha).
void analyze_degradation_into(const SeriesSummary& series, const ComparisonConfig& config,
                              DegradationScratch& scratch, DegradationResult& out);

/// The per-window degradation comparison: `pref` (the preferred-route cell
/// of one window) against the chosen baseline cells. Overwrites `out`; a
/// null baseline leaves the corresponding Comparison kMissing. Shared by
/// the retrospective analyzer above and the streaming verdict path
/// (agg/window_verdict.h) — one implementation, so batch and stream
/// verdicts cannot drift.
void evaluate_degradation_window(int window, const CellSummary& pref,
                                 const CellSummary* base_rtt,
                                 const CellSummary* base_hd,
                                 const ComparisonConfig& config,
                                 DegradationWindow& out);

}  // namespace fbedge
