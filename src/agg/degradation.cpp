#include "agg/degradation.h"

#include <algorithm>
#include <cmath>

namespace fbedge {

namespace {

/// Picks the window whose metric value is nearest the requested quantile of
/// the per-window series (only windows meeting the sample minimum count),
/// and returns its position in series.windows, or -1 when none qualifies.
/// `values` is caller-provided scratch (cleared here, capacity kept).
int baseline_window(const SeriesSummary& series, bool use_hd, double q, int min_samples,
                    std::vector<std::pair<double, int>>& values) {
  values.clear();
  for (std::size_t i = 0; i < series.windows.size(); ++i) {
    const WindowSummary& ws = series.windows[i];
    if (ws.routes == 0) continue;
    const CellSummary& pref = series.cells[ws.first];
    // Windows ascend, so a tie in the metric breaks by window id.
    if (use_hd) {
      if (pref.hd_sessions() < min_samples) continue;
      values.emplace_back(pref.hdratio_p50(), static_cast<int>(i));
    } else {
      if (pref.sessions < min_samples) continue;
      values.emplace_back(pref.minrtt_p50(), static_cast<int>(i));
    }
  }
  if (values.empty()) return -1;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(std::llround(pos))].second;
}

}  // namespace

DegradationResult analyze_degradation(const GroupSeries& series,
                                      const ComparisonConfig& config) {
  DegradationScratch scratch;
  DegradationResult out;
  analyze_degradation_into(series, config, scratch, out);
  return out;
}

void analyze_degradation_into(const GroupSeries& series, const ComparisonConfig& config,
                              DegradationScratch& scratch, DegradationResult& out) {
  summarize_series(series, confidence_z(config.alpha), scratch.summary);
  analyze_degradation_into(scratch.summary, config, scratch, out);
}

void analyze_degradation_into(const SeriesSummary& series, const ComparisonConfig& config,
                              DegradationScratch& scratch, DegradationResult& out) {
  out.windows.clear();
  out.baseline_rtt_window = -1;
  out.baseline_hd_window = -1;
  out.baseline_minrtt_p50 = 0;
  out.baseline_hdratio_p50 = 0;
  // Baseline: best observed performance at stable quantiles (p10 RTT, p90 HD).
  const int rtt_at = baseline_window(series, /*use_hd=*/false, 0.10,
                                     config.min_samples, scratch.values);
  const int hd_at = baseline_window(series, /*use_hd=*/true, 0.90,
                                    config.min_samples, scratch.values);

  const CellSummary* base_rtt = nullptr;
  const CellSummary* base_hd = nullptr;
  if (rtt_at >= 0) {
    const WindowSummary& ws = series.windows[static_cast<std::size_t>(rtt_at)];
    out.baseline_rtt_window = ws.window;
    base_rtt = &series.cells[ws.first];
    out.baseline_minrtt_p50 = base_rtt->minrtt_p50();
  }
  if (hd_at >= 0) {
    const WindowSummary& ws = series.windows[static_cast<std::size_t>(hd_at)];
    out.baseline_hd_window = ws.window;
    base_hd = &series.cells[ws.first];
    out.baseline_hdratio_p50 = base_hd->hdratio_p50();
  }

  for (const WindowSummary& ws : series.windows) {
    if (ws.routes == 0) continue;
    const CellSummary& pref = series.cells[ws.first];
    if (pref.sessions == 0) continue;
    DegradationWindow dw;
    evaluate_degradation_window(ws.window, pref, base_rtt, base_hd, config, dw);
    out.windows.push_back(std::move(dw));
  }
}

void evaluate_degradation_window(int window, const CellSummary& pref,
                                 const CellSummary* base_rtt,
                                 const CellSummary* base_hd,
                                 const ComparisonConfig& config,
                                 DegradationWindow& out) {
  out = DegradationWindow{};
  out.window = window;
  out.traffic = pref.traffic;
  if (base_rtt) out.rtt = compare_minrtt(pref, *base_rtt, config);
  if (base_hd) {
    // Degradation direction: baseline - current (HD drops when degraded).
    out.hd = compare_hdratio(*base_hd, pref, config);
  }
}

}  // namespace fbedge
