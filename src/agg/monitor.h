// Online degradation monitoring.
//
// analyze_degradation() is retrospective: it picks the baseline from the
// full 10-day series. A production alerting pipeline cannot wait for the
// study to end — it maintains a rolling baseline from the best recent
// windows and tests each *closed* window against it as soon as the window
// completes (the design footnote 11 sketches: t-digests in a streaming
// analytics framework). This monitor implements that loop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "agg/comparison.h"
#include "agg/window_verdict.h"

namespace fbedge {

/// Emitted whenever a closed window shows statistically confident
/// degradation versus the rolling baseline.
struct DegradationEvent {
  int window{0};
  /// current - baseline MinRTT_P50 (positive = slower), if RTT-triggered.
  std::optional<ConfidenceInterval> rtt;
  /// baseline - current HDratio_P50 (positive = worse), if HD-triggered.
  std::optional<ConfidenceInterval> hd;
};

struct MonitorConfig {
  ComparisonConfig comparison;
  Duration rtt_threshold{0.005};
  double hd_threshold{0.05};
  /// Number of recent windows the rolling baseline is drawn from.
  int history_windows{96};
  /// Baseline pick: the window at this quantile of recent MinRTT_P50
  /// (1 - quantile for HDratio_P50), mirroring §3.4's p10/p90 choice.
  double baseline_quantile{0.10};
  /// Windows needed before alerts fire (baseline warm-up).
  int min_history{8};
};

/// Feed one aggregated window at a time via on_window_closed(); alerts are
/// delivered through the callback.
class DegradationMonitor {
 public:
  using AlertFn = std::function<void(const DegradationEvent&)>;

  explicit DegradationMonitor(MonitorConfig config, AlertFn alert)
      : config_(config),
        alert_(std::move(alert)),
        baseline_(RollingBaseline::Config{config.history_windows,
                                          config.baseline_quantile,
                                          config.min_history,
                                          config.comparison.min_samples}) {}

  /// Processes a completed (user group x window) aggregation for the
  /// monitored route. The cell is summarized once, and its summary joins
  /// the rolling history. The comparison itself is the shared
  /// evaluate_degradation_window, so a monitor alert and a
  /// streaming-pipeline verdict for the same window are the same
  /// computation.
  void on_window_closed(int window, const RouteWindowAgg& agg);

  /// Windows currently in the baseline history.
  int history_size() const { return baseline_.history_size(); }

  /// Session-less windows rejected by on_window_closed.
  std::uint64_t skipped_empty() const { return skipped_empty_; }

  /// The current rolling baselines (nullopt during warm-up).
  std::optional<Duration> baseline_minrtt() const;
  std::optional<double> baseline_hdratio() const;

 private:
  MonitorConfig config_;
  AlertFn alert_;
  RollingBaseline baseline_;
  std::uint64_t skipped_empty_{0};
};

}  // namespace fbedge
