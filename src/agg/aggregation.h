// Per-(user group, window, route) measurement aggregation (§3.3).
//
// For each aggregation we keep t-digest sketches of per-session MinRTT and
// HDratio (as a streaming production system would, footnote 11), the
// session count, and the traffic volume used to weight results. Medians
// (MinRTTP50 / HDratioP50) are read from the sketches; confidence intervals
// come from stats/median_ci.h.
#pragma once

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "agg/user_group.h"
#include "stats/median_ci.h"
#include "stats/tdigest.h"
#include "stats/welford.h"
#include "util/binio.h"
#include "util/expect.h"
#include "util/units.h"

namespace fbedge {

/// A saved RouteWindowAgg (the layout RouteWindowAgg::save writes) read in
/// place: its counters, and both sketches as views over the reader's bytes,
/// valid while those bytes are. read() is the one parser of that layout:
/// RouteWindowAgg::load copies what it reads, and a blob summary walks the
/// views without copying a centroid (agg/cell_summary.h).
struct SavedRouteWindowAgg {
  std::int64_t sessions{0};
  Bytes traffic{0};
  Welford minrtt_mean;
  Welford hdratio_mean;
  TDigestView minrtt;
  TDigestView hdratio;

  /// Reads one saved cell at `r`'s position and advances past it. Returns
  /// false, `r` failed, on truncated or structurally invalid input.
  bool read(ByteReader& r) {
    sessions = r.i64();
    traffic = r.i64();
    for (Welford* m : {&minrtt_mean, &hdratio_mean}) {
      const std::uint64_t n = r.u64();
      const double mean = r.f64();
      const double m2 = r.f64();
      *m = Welford::from_raw(n, mean, m2);
    }
    return minrtt.parse(r) && hdratio.parse(r) && r.ok();
  }
};

/// Sketches for one (user group, window, route) cell.
class RouteWindowAgg {
 public:
  RouteWindowAgg() : minrtt_(100), hdratio_(100) {}

  /// Adds one session's metrics. `hdratio` is nullopt when no transaction
  /// could test for the target goodput (§3.2.4) — such sessions still
  /// contribute MinRTT and traffic volume.
  void add_session(Duration min_rtt, std::optional<double> hdratio, Bytes traffic) {
    minrtt_.add(min_rtt);
    minrtt_mean_.add(min_rtt);
    if (hdratio) {
      hdratio_.add(*hdratio);
      hdratio_mean_.add(*hdratio);
    }
    traffic_bytes_ += traffic;
    ++sessions_;
  }

  /// Median MinRTT across sessions (MinRTT_P50). NaN if empty.
  Duration minrtt_p50() const { return minrtt_.quantile(0.5); }
  /// Median HDratio across HD-testable sessions (HDratio_P50). NaN if none.
  double hdratio_p50() const { return hdratio_.quantile(0.5); }

  /// Mean-based aggregates (the paper's footnote-10 ablation: comparing
  /// average HDratio across aggregations gives qualitatively similar
  /// results to medians, but is exposed to tail-RTT skew and the bimodal
  /// HDratio distribution).
  const Welford& minrtt_mean() const { return minrtt_mean_; }
  const Welford& hdratio_mean() const { return hdratio_mean_; }

  int sessions() const { return sessions_; }
  int hd_sessions() const { return static_cast<int>(hdratio_.count()); }
  Bytes traffic() const { return traffic_bytes_; }

  const TDigest& minrtt_digest() const { return minrtt_; }
  const TDigest& hdratio_digest() const { return hdratio_; }

  /// Merges another cell into this one (sketches merge loss-bounded;
  /// counts and traffic add) — the primitive behind window rollups.
  void merge(const RouteWindowAgg& other) {
    minrtt_.merge(other.minrtt_);
    hdratio_.merge(other.hdratio_);
    minrtt_mean_.merge(other.minrtt_mean_);
    hdratio_mean_.merge(other.hdratio_mean_);
    traffic_bytes_ += other.traffic_bytes_;
    sessions_ += other.sessions_;
  }

  /// Seals both sketches (TDigest::seal) once the cell's window is closed:
  /// what the cell answers and saves does not change by a bit, and it keeps
  /// only its centroids.
  void seal() {
    minrtt_.seal();
    hdratio_.seal();
  }

  /// Returns the cell to its empty state while keeping the sketches' heap
  /// buffers — the pooled-reuse primitive (see RouteAggPool).
  void reset() {
    minrtt_.reset();
    hdratio_.reset();
    minrtt_mean_ = Welford{};
    hdratio_mean_ = Welford{};
    traffic_bytes_ = 0;
    sessions_ = 0;
  }

  /// Bitwise serialization of the cell (counts, traffic, both Welford
  /// accumulators, both sketches). load() into any cell — fresh, reset, or
  /// pooled — reconstructs state whose every query matches save()'s source
  /// bit-for-bit.
  void save(ByteWriter& w) const {
    w.i64(static_cast<std::int64_t>(sessions_));
    w.i64(traffic_bytes_);
    for (const Welford* m : {&minrtt_mean_, &hdratio_mean_}) {
      w.u64(m->count());
      w.f64(m->mean());
      w.f64(m->m2());
    }
    minrtt_.save(w);
    hdratio_.save(w);
  }

  /// Exact number of bytes the next save() will append (compresses the
  /// sketches, which save() does anyway) — lets serializers size output
  /// buffers before writing.
  std::size_t saved_size() const {
    return 8 + 8 + 2 * 24 + minrtt_.saved_size() + hdratio_.saved_size();
  }

  /// Replaces the cell with the one saved at `r`'s position
  /// (SavedRouteWindowAgg::read). Returns false, `r` failed and the cell
  /// unchanged, on truncated or structurally invalid input.
  bool load(ByteReader& r) {
    SavedRouteWindowAgg saved;
    if (!saved.read(r)) return false;
    minrtt_.load(saved.minrtt);
    hdratio_.load(saved.hdratio);
    minrtt_mean_ = saved.minrtt_mean;
    hdratio_mean_ = saved.hdratio_mean;
    traffic_bytes_ = saved.traffic;
    sessions_ = static_cast<int>(saved.sessions);
    return true;
  }

 private:
  TDigest minrtt_;
  TDigest hdratio_;
  Welford minrtt_mean_;
  Welford hdratio_mean_;
  Bytes traffic_bytes_{0};
  int sessions_{0};
};

/// All routes measured for one (user group, window): index 0 is the
/// policy-preferred route, 1..k the ranked alternates (§2.2.3).
class RouteAggPool;

struct WindowAgg {
  std::vector<RouteWindowAgg> routes;

  RouteWindowAgg& route(int index) {
    if (static_cast<int>(routes.size()) <= index) routes.resize(index + 1);
    return routes[static_cast<std::size_t>(index)];
  }

  /// Like route(), but grows via the pool so reused digests keep their
  /// heap buffers (defined after RouteAggPool below).
  RouteWindowAgg& route_pooled(int index, RouteAggPool& pool);

  const RouteWindowAgg* route(int index) const {
    if (index < 0 || index >= static_cast<int>(routes.size())) return nullptr;
    return &routes[static_cast<std::size_t>(index)];
  }

  /// Traffic across all routes in this window.
  Bytes total_traffic() const {
    Bytes total = 0;
    for (const auto& r : routes) total += r.traffic();
    return total;
  }
};

/// Sorted flat map from window index to WindowAgg, replacing the former
/// `std::map<int, WindowAgg>`: windows arrive (almost always) in time
/// order, so inserts are amortized O(1) appends, lookups are a binary
/// search over a contiguous vector, and iteration — the aggregation hot
/// path — is a linear scan with no pointer chasing. Iteration yields
/// (window, agg) pairs in ascending window order, exactly like the map.
class WindowMap {
 public:
  using value_type = std::pair<int, WindowAgg>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Returns the aggregation for `w`, inserting an empty one if missing.
  WindowAgg& operator[](int w) {
    if (!entries_.empty() && entries_.back().first == w) {
      return entries_.back().second;  // repeated access to the open window
    }
    if (entries_.empty() || entries_.back().first < w) {
      return entries_.emplace_back(w, WindowAgg{}).second;  // in-order append
    }
    const auto it = lower_bound(w);
    if (it != entries_.end() && it->first == w) return it->second;
    return entries_.emplace(it, w, WindowAgg{})->second;
  }

  /// Returns the aggregation for `w`; the window must be present.
  WindowAgg& at(int w) {
    const auto it = lower_bound(w);
    FBEDGE_EXPECT(it != entries_.end() && it->first == w, "window not present");
    return it->second;
  }
  const WindowAgg& at(int w) const {
    const auto it = lower_bound(w);
    FBEDGE_EXPECT(it != entries_.end() && it->first == w, "window not present");
    return it->second;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// Drops all windows; the entry vector keeps its capacity so a reused
  /// map re-fills without reallocating the spine.
  void clear() { entries_.clear(); }

  /// Removes every window for which `pred(window, agg)` is true; returns
  /// how many were removed. Remaining windows keep their ascending order.
  template <typename Pred>
  std::size_t remove_if(Pred&& pred) {
    const auto it = std::remove_if(
        entries_.begin(), entries_.end(),
        [&](const value_type& e) { return pred(e.first, e.second); });
    const auto removed = static_cast<std::size_t>(entries_.end() - it);
    entries_.erase(it, entries_.end());
    return removed;
  }

 private:
  iterator lower_bound(int w) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), w,
        [](const value_type& e, int key) { return e.first < key; });
  }
  const_iterator lower_bound(int w) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), w,
        [](const value_type& e, int key) { return e.first < key; });
  }

  std::vector<value_type> entries_;
};

/// Time series of windows for one user group, plus static group metadata.
struct GroupSeries {
  Continent continent{Continent::kNorthAmerica};
  /// window index -> aggregation (sparse; groups can be idle off-hours).
  WindowMap windows;

  Bytes total_traffic() const {
    Bytes total = 0;
    for (const auto& [w, agg] : windows) total += agg.total_traffic();
    return total;
  }
};

/// Free-list of RouteWindowAgg cells. A cell's dominant cost is the heap
/// buffers inside its two t-digests; recycling cells between groups keeps
/// those buffers warm, so steady-state ingest of a new group allocates
/// (almost) nothing — except for cells that were sealed, which come back
/// with only their centroid arrays. Pooled cells are reset() on the way in,
/// and a reset cell is behaviorally bit-identical to a fresh one, so
/// pooling cannot change any analysis output.
class RouteAggPool {
 public:
  /// Takes a cell from the pool (empty state, warm buffers), or constructs
  /// a fresh one when the pool is dry.
  RouteWindowAgg get() {
    if (free_.empty()) return RouteWindowAgg{};
    RouteWindowAgg cell = std::move(free_.back());
    free_.pop_back();
    return cell;
  }

  /// Resets `cell` and stores it for reuse.
  void put(RouteWindowAgg&& cell) {
    cell.reset();
    free_.push_back(std::move(cell));
  }

  /// Moves every route cell of `series` into the pool and empties the
  /// series, leaving it ready to ingest the next group. Routes are
  /// truncated (not just reset) so a reused series never reports stale
  /// `routes.size()` to the analysis passes.
  void recycle(GroupSeries& series);

  std::size_t size() const { return free_.size(); }

 private:
  std::vector<RouteWindowAgg> free_;
};

inline RouteWindowAgg& WindowAgg::route_pooled(int index, RouteAggPool& pool) {
  while (static_cast<int>(routes.size()) <= index) routes.push_back(pool.get());
  return routes[static_cast<std::size_t>(index)];
}

inline void RouteAggPool::recycle(GroupSeries& series) {
  for (auto& [w, agg] : series.windows) {
    for (auto& cell : agg.routes) put(std::move(cell));
    agg.routes.clear();
  }
  series.windows.clear();
}

/// The dataset-wide aggregation store fed by the measurement pipeline.
class AggregationStore {
 public:
  /// Adds one session's metrics to its aggregation cell.
  void add_session(const UserGroupKey& key, Continent continent, SimTime at,
                   int route_index, Duration min_rtt, std::optional<double> hdratio,
                   Bytes traffic) {
    auto& series = groups_[key];
    series.continent = continent;
    series.windows[window_index(at)].route(route_index).add_session(min_rtt, hdratio,
                                                                    traffic);
  }

  const std::unordered_map<UserGroupKey, GroupSeries, UserGroupKeyHash>& groups() const {
    return groups_;
  }

  /// Mutable access for deserialization (ingest-artifact cache): returns
  /// the series for `key`, creating an empty one if missing.
  GroupSeries& series_for(const UserGroupKey& key) { return groups_[key]; }

  std::size_t group_count() const { return groups_.size(); }

 private:
  std::unordered_map<UserGroupKey, GroupSeries, UserGroupKeyHash> groups_;
};

}  // namespace fbedge
