// Per-cell median summaries: what §3.4's comparisons read from a
// (window, route) cell, taken once per cell.
//
// Degradation, opportunity, Fig. 10 and the stream verdict compare cells
// by difference-of-medians CIs (footnote 11). Asked of the t-digests
// directly, the same quantiles would be walked for again and again: one
// cell's median CI several times per window, the baseline cell's once per
// window. A CellSummary holds the answers instead: the session count, the
// traffic and, for MinRTT and HDratio, the point count plus the median CI,
// all from one TDigest::quantiles walk per digest. Every analysis body
// reads only summaries; the GroupSeries, WindowAgg and RouteWindowAgg
// entry points summarize and call the same body.
//
// A summary holds exactly the doubles the digests would have answered, so
// analyzing summaries is bitwise analyzing the digests they came from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/aggregation.h"
#include "stats/median_ci.h"

namespace fbedge {

/// One (window, route) cell as the analyses see it. Fixed-size and free of
/// padding, so two summaries are equal exactly when their bytes are.
struct CellSummary {
  std::int64_t sessions{0};
  Bytes traffic{0};
  MedianSummary minrtt;
  MedianSummary hdratio;

  /// Sessions with an HDratio (RouteWindowAgg::hd_sessions()).
  int hd_sessions() const { return static_cast<int>(hdratio.count); }
  Duration minrtt_p50() const { return minrtt.ci.estimate; }
  double hdratio_p50() const { return hdratio.ci.estimate; }
};
static_assert(sizeof(MedianSummary) == 40 && sizeof(CellSummary) == 96,
              "summaries carry no padding bytes");

/// Summarizes `cell` at z = confidence_z(alpha).
inline CellSummary summarize_cell(const RouteWindowAgg& cell, double z) {
  CellSummary s;
  s.sessions = cell.sessions();
  s.traffic = cell.traffic();
  s.minrtt = summarize_median(cell.minrtt_digest(), z);
  s.hdratio = summarize_median(cell.hdratio_digest(), z);
  return s;
}

/// Refills `out` with the summaries of `agg`'s routes, in route order.
inline void summarize_window(const WindowAgg& agg, double z,
                             std::vector<CellSummary>& out) {
  out.clear();
  for (const RouteWindowAgg& cell : agg.routes) out.push_back(summarize_cell(cell, z));
}

/// One window of a SeriesSummary: its routes are cells
/// [first, first + routes) of the series.
struct WindowSummary {
  int window{0};
  std::uint32_t first{0};
  std::uint32_t routes{0};
  /// Traffic across the window's routes (WindowAgg::total_traffic()).
  Bytes traffic{0};
};

/// A group's series as summaries, windows ascending. Lives in per-worker
/// scratch: clear() keeps every buffer's capacity.
struct SeriesSummary {
  Continent continent{Continent::kNorthAmerica};
  std::vector<WindowSummary> windows;
  std::vector<CellSummary> cells;

  std::span<const CellSummary> routes(const WindowSummary& w) const {
    return {cells.data() + w.first, w.routes};
  }

  void clear() {
    windows.clear();
    cells.clear();
  }

  /// Opens window `w`; add_cell() then appends its routes in order.
  void begin_window(int w) {
    windows.push_back({w, static_cast<std::uint32_t>(cells.size()), 0, 0});
  }
  void add_cell(const CellSummary& cell) {
    cells.push_back(cell);
    ++windows.back().routes;
    windows.back().traffic += cell.traffic;
  }
};

/// Refills `out` with the summaries of every cell of `series`.
inline void summarize_series(const GroupSeries& series, double z, SeriesSummary& out) {
  out.clear();
  out.continent = series.continent;
  for (const auto& [w, agg] : series.windows) {
    out.begin_window(w);
    for (const RouteWindowAgg& cell : agg.routes) out.add_cell(summarize_cell(cell, z));
  }
}

}  // namespace fbedge
