#include "agg/opportunity.h"

#include <cmath>

namespace fbedge {

std::vector<OpportunityWindow> analyze_opportunity(const GroupSeries& series,
                                                   const ComparisonConfig& config) {
  std::vector<OpportunityWindow> out;
  analyze_opportunity_into(series, config, out);
  return out;
}

void analyze_opportunity_into(const GroupSeries& series, const ComparisonConfig& config,
                              std::vector<OpportunityWindow>& out) {
  SeriesSummary summary;
  summarize_series(series, confidence_z(config.alpha), summary);
  analyze_opportunity_into(summary, config, out);
}

void analyze_opportunity_into(const SeriesSummary& series, const ComparisonConfig& config,
                              std::vector<OpportunityWindow>& out) {
  out.clear();
  for (const WindowSummary& ws : series.windows) {
    OpportunityWindow ow;
    if (evaluate_opportunity_window(ws.window, series.routes(ws), config, ow)) {
      out.push_back(std::move(ow));
    }
  }
}

bool evaluate_opportunity_window(int window, std::span<const CellSummary> routes,
                                 const ComparisonConfig& config,
                                 OpportunityWindow& out) {
  if (routes.size() < 2) return false;
  const CellSummary& pref = routes[0];

  out = OpportunityWindow{};
  out.window = window;
  for (const CellSummary& cell : routes) out.traffic += cell.traffic;

  // Best alternates by point estimate, per metric.
  int best_rtt = -1;
  int best_hd = -1;
  for (int i = 1; i < static_cast<int>(routes.size()); ++i) {
    const CellSummary& alt = routes[static_cast<std::size_t>(i)];
    if (alt.sessions >= config.min_samples &&
        (best_rtt < 0 || alt.minrtt_p50() < routes[best_rtt].minrtt_p50())) {
      best_rtt = i;
    }
    if (alt.hd_sessions() >= config.min_samples &&
        (best_hd < 0 || alt.hdratio_p50() > routes[best_hd].hdratio_p50())) {
      best_hd = i;
    }
  }

  if (best_rtt >= 0) {
    const CellSummary& alt = routes[static_cast<std::size_t>(best_rtt)];
    out.rtt = compare_minrtt(pref, alt, config);  // positive = alt faster
    out.rtt_alternate = best_rtt;
    out.rtt_alternate_hd = compare_hdratio(alt, pref, config);
  }
  if (best_hd >= 0) {
    const CellSummary& alt = routes[static_cast<std::size_t>(best_hd)];
    out.hd = compare_hdratio(alt, pref, config);  // positive = alt better
    out.hd_alternate = best_hd;
  }
  return true;
}

}  // namespace fbedge
