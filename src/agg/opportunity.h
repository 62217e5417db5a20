// Opportunity for performance-aware routing (§3.4, §6.2).
//
// Within an aggregation (user group x window), the preferred route is
// compared against the best-performing alternate route. There is an
// opportunity when the CI lower bound of the improvement clears a
// threshold. HDratio is the richer signal, so MinRTT opportunities only
// count when the alternate's HDratio is statistically equal or better
// than the preferred route's.
#pragma once

#include <span>
#include <vector>

#include "agg/comparison.h"

namespace fbedge {

/// Route comparison verdicts for one window of one user group.
struct OpportunityWindow {
  int window{0};
  /// Traffic across all routes in the window (opportunity applies to all
  /// traffic that would be shifted).
  Bytes traffic{0};

  /// preferred - best_alternate MinRTT_P50 (positive = alternate faster).
  Comparison rtt;
  /// Index of the alternate used for the MinRTT comparison (-1 if none).
  int rtt_alternate{-1};
  /// HDratio guard for the MinRTT opportunity: alternate - preferred over
  /// the same alternate route (negative upper bound = alternate worse).
  Comparison rtt_alternate_hd;

  /// best_alternate - preferred HDratio_P50 (positive = alternate better).
  Comparison hd;
  int hd_alternate{-1};

  /// MinRTT improvable by more than `threshold`, with the HDratio guard:
  /// no statistical evidence that the alternate's HDratio is worse.
  bool rtt_opportunity(Duration threshold) const {
    if (!rtt.exceeds(threshold)) return false;
    const bool hd_worse = rtt_alternate_hd.valid() && rtt_alternate_hd.diff.upper < 0;
    return !hd_worse;
  }

  bool hd_opportunity(double threshold) const { return hd.exceeds(threshold); }

  /// Valid for analysis: at least the MinRTT or HDratio comparison met the
  /// §3.4.1 requirements.
  bool valid() const { return rtt.valid() || hd.valid(); }
};

/// Compares preferred (route 0) vs ranked alternates for every window of a
/// group that has at least two measured routes.
std::vector<OpportunityWindow> analyze_opportunity(const GroupSeries& series,
                                                   const ComparisonConfig& config);

/// As analyze_opportunity, but refilling `out` in place (cleared, not
/// reallocated) — bitwise identical results to the allocating overload.
void analyze_opportunity_into(const GroupSeries& series, const ComparisonConfig& config,
                              std::vector<OpportunityWindow>& out);

/// The opportunity pass over a series' summaries, taken at
/// confidence_z(config.alpha). Both overloads above summarize and call it.
void analyze_opportunity_into(const SeriesSummary& series, const ComparisonConfig& config,
                              std::vector<OpportunityWindow>& out);

/// The per-window comparison body: preferred (route 0) vs the best-ranked
/// alternates among one window's route summaries. Returns false (leaving
/// `out` untouched) when the window has fewer than two measured routes.
/// Shared by the batch analyzer above and the streaming verdict path
/// (agg/window_verdict.h) — one implementation, so batch and stream
/// verdicts cannot drift.
bool evaluate_opportunity_window(int window, std::span<const CellSummary> routes,
                                 const ComparisonConfig& config,
                                 OpportunityWindow& out);

}  // namespace fbedge
