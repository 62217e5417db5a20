#include "agg/monitor.h"

#include "agg/degradation.h"

namespace fbedge {

std::optional<Duration> DegradationMonitor::baseline_minrtt() const {
  const CellSummary* base = baseline_.baseline_rtt();
  if (!base) return std::nullopt;
  return base->minrtt_p50();
}

std::optional<double> DegradationMonitor::baseline_hdratio() const {
  const CellSummary* base = baseline_.baseline_hd();
  if (!base) return std::nullopt;
  return base->hdratio_p50();
}

void DegradationMonitor::on_window_closed(int window, const RouteWindowAgg& agg) {
  // A window with no sessions (PoP outage, dropped window) carries no
  // signal: comparing its NaN medians would never fire, but letting it
  // into the history would dilute the baseline pool. Skip and count it.
  if (agg.sessions() == 0) {
    ++skipped_empty_;
    return;
  }
  const CellSummary cell = summarize_cell(agg, confidence_z(config_.comparison.alpha));
  DegradationWindow dw;
  evaluate_degradation_window(window, cell, baseline_.baseline_rtt(),
                              baseline_.baseline_hd(), config_.comparison, dw);
  DegradationEvent event;
  event.window = window;
  bool fire = false;
  if (dw.rtt.exceeds(config_.rtt_threshold)) {
    event.rtt = dw.rtt.diff;
    fire = true;
  }
  if (dw.hd.exceeds(config_.hd_threshold)) {
    event.hd = dw.hd.diff;
    fire = true;
  }
  if (fire && alert_) alert_(event);

  // Degraded windows still enter history: with a long enough history the
  // baseline quantile keeps selecting healthy windows, and a persistent
  // shift eventually *becomes* the baseline (matching §3.4's per-group
  // baseline semantics).
  baseline_.push(window, cell);
}

}  // namespace fbedge
