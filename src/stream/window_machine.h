// Per-group event-time window state machine (the stream side of §3.3's
// 15-minute aggregation).
//
// The batch pipeline materializes a group's whole GroupSeries, then
// analyzes it. A long-running monitor cannot: it must close each window as
// soon as the stream guarantees no more of its rows can arrive, emit the
// verdict, and free the window's state. WindowMachine implements that
// contract with a low-watermark: the watermark is the highest *nominal*
// window id delivered so far (the source emits micro-batches in nominal
// window order), and every open window older than
// `watermark - allowed_lateness_windows` is sealed — in ascending window
// order, exactly once — through the seal callback, then recycled into the
// route-cell pool. Rows addressed at an already-sealed window are counted
// and dropped (the late-drop path); they can only exist when delivery is
// reordered (fault injection), never on a clean in-order replay, because a
// nominal batch w's rows land in windows w or w+1 only (a session's start
// is drawn inside its window; the draw can round up across the boundary).
//
// Batch equivalence is structural: with allowed_lateness_windows =
// kStreamNeverSeal nothing seals before flush(), so the machine *is* the
// batch materialization — flush() then seals the full series ascending.
// Either way every window receives the same rows in the same order and is
// sealed in the same ascending sequence, which is why stream and batch
// verdicts are bitwise identical (tests/stream_test.cpp enforces this over
// a 100-seed sweep).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>

#include "agg/aggregation.h"
#include "agg/user_group.h"
#include "util/units.h"

namespace fbedge {

/// One analysis-ready session on the stream: the survivor of the
/// generate -> coalesce -> HD pipeline, compacted to exactly what
/// RouteWindowAgg::add_session consumes. `hd_value` is meaningful only
/// when `has_hd` (§3.2.4's "no signal" sessions stream as has_hd = 0).
struct StreamRow {
  SimTime at{0};
  std::int32_t route{0};
  Duration min_rtt{0};
  double hd_value{0};
  std::uint8_t has_hd{0};
  Bytes bytes{0};

  std::optional<double> hdratio() const {
    if (!has_hd) return std::nullopt;
    return hd_value;
  }
};

/// Lateness sentinel: never seal on the watermark, only at flush() — the
/// batch-replay mode of the monitor pipeline.
constexpr int kStreamNeverSeal = std::numeric_limits<int>::max();

class WindowMachine {
 public:
  /// Called exactly once per non-empty window, in ascending window order.
  /// The agg is mutable so the callee may consume it; the machine recycles
  /// its route cells right after the call returns.
  using SealFn = std::function<void(int window, WindowAgg& agg)>;

  /// Arms the machine for one group: clears open windows and counters
  /// (keeping every heap buffer warm via the internal pool) and installs
  /// the group's lateness band and seal callback.
  void start_group(int allowed_lateness_windows, SealFn seal);

  /// Ingests one micro-batch delivery. `nominal_window` drives the
  /// watermark; rows are binned by their own timestamps (boundary rows may
  /// belong to nominal_window + 1). A zero-row delivery still advances the
  /// watermark — event-time progress is not data.
  void on_delivery(int nominal_window, const StreamRow* rows, std::size_t count);

  /// Seals every remaining open window (ascending). Further deliveries
  /// would be entirely late; a second flush seals nothing (idempotent).
  void flush();

  // Per-group counters (reset by start_group).
  std::uint64_t sealed_windows() const { return sealed_windows_; }
  std::uint64_t watermark_advances() const { return watermark_advances_; }
  /// Peak simultaneously-open windows — the machine's live state bound
  /// (<= lateness + 2 on a clean in-order stream).
  std::uint64_t open_windows_peak() const { return open_windows_peak_; }
  /// Rows dropped because their window had already sealed, and the number
  /// of deliveries that contained at least one such row.
  std::uint64_t late_rows() const { return late_rows_; }
  std::uint64_t late_deliveries() const { return late_deliveries_; }

  std::size_t open_windows() const { return open_.size(); }

 private:
  /// Seals (ascending) and recycles every open window with id < `bound`.
  void seal_below(long long bound);

  WindowMap open_;
  RouteAggPool pool_;
  SealFn seal_;
  int lateness_{0};
  /// Highest nominal window delivered; windows below `sealed_below_` are
  /// gone and can never reopen.
  long long watermark_{std::numeric_limits<long long>::min()};
  long long sealed_below_{std::numeric_limits<long long>::min()};

  std::uint64_t sealed_windows_{0};
  std::uint64_t watermark_advances_{0};
  std::uint64_t open_windows_peak_{0};
  std::uint64_t late_rows_{0};
  std::uint64_t late_deliveries_{0};
};

}  // namespace fbedge
