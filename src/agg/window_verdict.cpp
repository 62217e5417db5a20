#include "agg/window_verdict.h"

#include <algorithm>
#include <cmath>

namespace fbedge {

void RollingBaseline::push(int window, const CellSummary& cell) {
  history_.push_back({window, cell});
  while (static_cast<int>(history_.size()) > config_.history_windows) {
    history_.pop_front();
  }
}

const CellSummary* RollingBaseline::baseline_entry(bool use_hd) const {
  values_.clear();
  for (const auto& entry : history_) {
    if (use_hd) {
      if (entry.cell.hd_sessions() < config_.min_samples) continue;
      values_.emplace_back(-entry.cell.hdratio_p50(), entry.window);  // p90 via negation
    } else {
      if (entry.cell.sessions < config_.min_samples) continue;
      values_.emplace_back(entry.cell.minrtt_p50(), entry.window);
    }
  }
  if (static_cast<int>(values_.size()) < config_.min_history) return nullptr;
  std::sort(values_.begin(), values_.end());
  const auto pos = static_cast<std::size_t>(std::llround(
      config_.baseline_quantile * static_cast<double>(values_.size() - 1)));
  const int picked = values_[pos].second;
  for (const auto& entry : history_) {
    if (entry.window == picked) return &entry.cell;
  }
  return nullptr;  // unreachable: picked came from the history
}

void evaluate_window_verdict(int window, std::span<const CellSummary> routes,
                             RollingBaseline& baseline,
                             const ComparisonConfig& config, WindowVerdict& out) {
  out.window = window;
  const bool has_pref = !routes.empty() && routes[0].sessions > 0;
  if (has_pref) {
    evaluate_degradation_window(window, routes[0], baseline.baseline_rtt(),
                                baseline.baseline_hd(), config, out.degr);
  } else {
    // No preferred-route signal: the window stays out of the baseline
    // history (it would dilute the baseline pool), but alternates can still
    // carry opportunity data below.
    out.degr = DegradationWindow{};
    out.degr.window = window;
  }
  out.has_opp = evaluate_opportunity_window(window, routes, config, out.opp);
  if (!out.has_opp) {
    out.opp = OpportunityWindow{};
    out.opp.window = window;
  }
  if (has_pref) baseline.push(window, routes[0]);
}

void evaluate_window_verdict(int window, const WindowAgg& agg,
                             RollingBaseline& baseline,
                             const ComparisonConfig& config, WindowVerdict& out) {
  std::vector<CellSummary> routes;
  summarize_window(agg, confidence_z(config.alpha), routes);
  evaluate_window_verdict(window, routes, baseline, config, out);
}

namespace {

void hash_comparison(const Comparison& c, Fnv64& h) {
  h.u8(static_cast<std::uint8_t>(c.validity));
  h.f64(c.diff.estimate);
  h.f64(c.diff.lower);
  h.f64(c.diff.upper);
}

}  // namespace

void hash_window_verdict(const WindowVerdict& v, Fnv64& h) {
  h.u32(static_cast<std::uint32_t>(v.window));
  h.i64(v.degr.traffic);
  hash_comparison(v.degr.rtt, h);
  hash_comparison(v.degr.hd, h);
  h.u8(v.has_opp ? 1 : 0);
  if (v.has_opp) {
    h.i64(v.opp.traffic);
    h.u32(static_cast<std::uint32_t>(v.opp.rtt_alternate));
    hash_comparison(v.opp.rtt, h);
    hash_comparison(v.opp.rtt_alternate_hd, h);
    h.u32(static_cast<std::uint32_t>(v.opp.hd_alternate));
    hash_comparison(v.opp.hd, h);
  }
}

}  // namespace fbedge
