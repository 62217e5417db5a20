// The shared per-window §3.4 verdict step.
//
// Degradation and opportunity verdicts for one sealed (user group, window)
// aggregation have one implementation each: the batch analyzers
// (degradation.cpp / opportunity.cpp walking a finished GroupSeries) and
// the streaming pipeline (src/stream/) call the same per-window functions,
// so batch/stream equivalence is structural, not coincidental.
//
// RollingBaseline is the streaming counterpart of the retrospective
// full-series baseline pick: the window at the configured quantile of the
// last N closed windows' MinRTT_P50 (1 - quantile for HDratio_P50),
// mirroring §3.4's p10/p90 choice without waiting for the study to end.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "agg/degradation.h"
#include "agg/opportunity.h"
#include "util/binio.h"

namespace fbedge {

struct RollingBaselineConfig {
  /// Number of recent windows the baseline is drawn from.
  int history_windows{96};
  /// Baseline pick: the window at this quantile of recent MinRTT_P50
  /// (1 - quantile for HDratio_P50).
  double baseline_quantile{0.10};
  /// Windows needed before a baseline exists (warm-up).
  int min_history{8};
  /// Sample floor for a window to be a baseline candidate (wired from
  /// ComparisonConfig::min_samples by the callers).
  int min_samples{30};
};

/// Rolling per-group baseline over recently closed windows. Push every
/// non-empty preferred-route cell's summary as its window seals (in window
/// order); the baseline accessors return the quantile pick, or nullptr
/// during warm-up. An entry is a fixed-size CellSummary, so the history
/// holds no t-digest. Reusable across groups via clear().
class RollingBaseline {
 public:
  using Config = RollingBaselineConfig;

  explicit RollingBaseline(Config config = {}) : config_(config) {}

  /// Appends one closed window's preferred-route summary and evicts
  /// beyond the history horizon. Call in ascending window order.
  void push(int window, const CellSummary& cell);

  /// The current baseline summaries; nullptr until enough qualifying
  /// history.
  const CellSummary* baseline_rtt() const { return baseline_entry(false); }
  const CellSummary* baseline_hd() const { return baseline_entry(true); }

  int history_size() const { return static_cast<int>(history_.size()); }
  const Config& config() const { return config_; }

  /// Drops all history (capacity of the entry deque is left to the
  /// allocator); per-group reuse in worker scratch.
  void clear() { history_.clear(); }

 private:
  struct HistoryEntry {
    int window;
    CellSummary cell;
  };

  const CellSummary* baseline_entry(bool use_hd) const;

  Config config_;
  std::deque<HistoryEntry> history_;
  /// Sort scratch for the quantile pick ((metric, window) pairs — the
  /// window tie-break makes the pick a well-defined total order).
  mutable std::vector<std::pair<double, int>> values_;
};

/// Alert thresholds for flagging a verdict (defaults match the paper's
/// headline 5 ms / 0.05 event definitions).
struct VerdictPolicy {
  Duration degradation_rtt{0.005};
  double degradation_hd{0.05};
  Duration opportunity_rtt{0.005};
  double opportunity_hd{0.05};
};

/// Everything §3.4 concludes about one sealed (group, window) aggregation:
/// the degradation comparison against the group's rolling baseline plus the
/// window-local preferred-vs-alternate opportunity comparison.
struct WindowVerdict {
  int window{0};
  /// vs rolling baseline; Comparisons stay kMissing when the preferred
  /// route is absent/empty or the baseline is still warming up.
  DegradationWindow degr;
  /// Preferred-vs-best-alternate; meaningful only when has_opp.
  OpportunityWindow opp;
  /// The window had a preferred route and at least two measured routes.
  bool has_opp{false};
};

/// Evaluates one sealed window — its route summaries, taken at
/// confidence_z(config.alpha) — against `baseline` and its own alternates,
/// then folds the preferred summary into the baseline history. This is
/// THE shared verdict step: the batch replay and the streaming window
/// machine both converge here.
void evaluate_window_verdict(int window, std::span<const CellSummary> routes,
                             RollingBaseline& baseline,
                             const ComparisonConfig& config, WindowVerdict& out);

/// The same step on a window's cells, summarized at config.alpha first.
void evaluate_window_verdict(int window, const WindowAgg& agg,
                             RollingBaseline& baseline,
                             const ComparisonConfig& config, WindowVerdict& out);

/// Folds a verdict's canonical byte encoding into `h` (window id, traffic,
/// every Comparison's validity and raw CI bits). Two verdict streams hash
/// equal iff they are bitwise identical — the O(1)-memory equivalence
/// witness used by fbedge_monitor and the stream tests.
void hash_window_verdict(const WindowVerdict& v, Fnv64& h);

}  // namespace fbedge
