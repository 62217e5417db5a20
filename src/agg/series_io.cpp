#include "agg/series_io.h"

#include <algorithm>

namespace fbedge {
namespace {

// Smallest possible encoded size of one route cell: sessions + traffic
// (8+8), two Welford triples (2*24), two empty t-digest headers (2*48).
// Used to bound count fields against the bytes actually remaining, so a
// corrupt length can never trigger an absurd allocation.
constexpr std::size_t kMinCellBytes = 8 + 8 + 2 * 24 + 2 * 48;
constexpr std::size_t kMinWindowBytes = 8 + 4 + kMinCellBytes;

}  // namespace

std::size_t group_series_saved_size(const GroupSeries& series) {
  std::size_t total = 1 + 8;  // continent tag + window count
  for (const auto& [window, agg] : series.windows) {
    (void)window;
    total += 8 + 4;  // window id + route count
    for (const RouteWindowAgg& cell : agg.routes) total += cell.saved_size();
  }
  return total;
}

void save_group_series(const GroupSeries& series, ByteWriter& w) {
  // Sizing first compresses every sketch, so the save loop below never
  // re-compresses, and the reserve turns ~N per-byte growth steps into a
  // single allocation for the whole artifact.
  w.reserve(group_series_saved_size(series));
  w.u8(static_cast<std::uint8_t>(series.continent));
  w.u64(series.windows.size());
  for (const auto& [window, agg] : series.windows) {
    w.i64(window);
    w.u32(static_cast<std::uint32_t>(agg.routes.size()));
    for (const RouteWindowAgg& cell : agg.routes) cell.save(w);
  }
}

namespace {

/// The one reader of the series framing: continent, window count, then per
/// window its id, route count and cells. `on_window(id, routes)` opens a
/// window and `on_cell(r)` reads its next cell, returning false when the
/// cell is invalid. Returns true when every announced window was read,
/// which is all the framing checks; a consumer additionally requires the
/// window ids to be distinct after truncation to int (see below).
template <typename WindowFn, typename CellFn>
bool parse_group_series(ByteReader& r, Continent& continent, std::uint64_t& window_count,
                        WindowFn&& on_window, CellFn&& on_cell) {
  const std::uint8_t tag = r.u8();
  window_count = r.u64();
  if (!r.ok() || tag >= static_cast<std::uint8_t>(kNumContinents) ||
      window_count > r.remaining() / kMinWindowBytes + 1) {
    r.fail();
    return false;
  }
  continent = static_cast<Continent>(tag);
  int prev_window = 0;
  for (std::uint64_t wi = 0; wi < window_count; ++wi) {
    const std::int64_t window = r.i64();
    const std::uint32_t route_count = r.u32();
    if (!r.ok() || route_count > r.remaining() / kMinCellBytes + 1 ||
        (wi > 0 && window <= prev_window)) {
      // Windows must arrive strictly ascending — that is what keeps
      // WindowMap's in-order append path O(1) and iteration sorted.
      r.fail();
      return false;
    }
    prev_window = static_cast<int>(window);
    on_window(prev_window, route_count);
    for (std::uint32_t ri = 0; ri < route_count; ++ri) {
      if (!on_cell(r)) {
        r.fail();
        return false;
      }
    }
  }
  return r.ok();
}

}  // namespace

bool load_group_series(ByteReader& r, GroupSeries& series, RouteAggPool* pool) {
  if (pool != nullptr) {
    pool->recycle(series);
  } else {
    series.windows.clear();
  }
  WindowAgg* agg = nullptr;
  std::uint32_t next_route = 0;
  std::uint64_t window_count = 0;
  const bool parsed = parse_group_series(
      r, series.continent, window_count,
      [&](int window, std::uint32_t) {
        agg = &series.windows[window];
        next_route = 0;
      },
      [&](ByteReader& in) {
        const int ri = static_cast<int>(next_route++);
        RouteWindowAgg& cell =
            pool != nullptr ? agg->route_pooled(ri, *pool) : agg->route(ri);
        return cell.load(in);
      });
  // An id that truncates onto an earlier window's reopens that window, so
  // the series ends up with fewer windows than announced.
  if (!parsed || series.windows.size() != window_count) {
    r.fail();
    if (pool != nullptr) {
      pool->recycle(series);
    } else {
      series.windows.clear();
    }
    return false;
  }
  return true;
}

bool summarize_group_series(ByteReader& r, double z, SeriesSummary& out) {
  out.clear();
  std::uint64_t window_count = 0;
  const bool parsed = parse_group_series(
      r, out.continent, window_count,
      [&](int window, std::uint32_t) { out.begin_window(window); },
      [&](ByteReader& in) {
        SavedRouteWindowAgg cell;
        if (!cell.read(in)) return false;
        out.add_cell(summarize_cell(cell, z));
        return true;
      });
  // Ids ascend as 64-bit values, so they ascend as ints unless one lies
  // outside int range. load_group_series files such a window under its
  // truncated id, in order, and rejects the series when two ids collide;
  // sorting the windows here does the same.
  const auto by_id = [](const WindowSummary& a, const WindowSummary& b) {
    return a.window < b.window;
  };
  bool distinct = parsed;
  if (parsed && !std::is_sorted(out.windows.begin(), out.windows.end(), by_id)) {
    std::sort(out.windows.begin(), out.windows.end(), by_id);
  }
  for (std::size_t i = 1; distinct && i < out.windows.size(); ++i) {
    distinct = out.windows[i - 1].window < out.windows[i].window;
  }
  if (!distinct) {
    r.fail();
    out.clear();
    return false;
  }
  return true;
}

}  // namespace fbedge
