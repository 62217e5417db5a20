#include "stream/window_machine.h"

#include <utility>

#include "util/expect.h"

namespace fbedge {

void WindowMachine::start_group(int allowed_lateness_windows, SealFn seal) {
  FBEDGE_EXPECT(allowed_lateness_windows >= 0,
                "allowed lateness must be non-negative");
  // Recycle whatever a previous group left open (a flushed group leaves
  // nothing; an aborted one must not leak cells into the next group).
  for (auto& [w, agg] : open_) {
    for (auto& cell : agg.routes) pool_.put(std::move(cell));
    agg.routes.clear();
  }
  open_.clear();
  seal_ = std::move(seal);
  lateness_ = allowed_lateness_windows;
  watermark_ = std::numeric_limits<long long>::min();
  sealed_below_ = std::numeric_limits<long long>::min();
  sealed_windows_ = 0;
  watermark_advances_ = 0;
  open_windows_peak_ = 0;
  late_rows_ = 0;
  late_deliveries_ = 0;
}

void WindowMachine::on_delivery(int nominal_window, const StreamRow* rows,
                                std::size_t count) {
  if (nominal_window > watermark_) {
    watermark_ = nominal_window;
    ++watermark_advances_;
    // Signed arithmetic on long long: lateness may be kStreamNeverSeal
    // (batch mode), which must push the bound far below any real window
    // rather than wrap.
    seal_below(watermark_ - static_cast<long long>(lateness_));
  }
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const StreamRow& row = rows[i];
    const int w = window_index(row.at);
    if (w < sealed_below_) {
      ++dropped;
      continue;
    }
    open_[w].route_pooled(row.route, pool_).add_session(row.min_rtt,
                                                        row.hdratio(), row.bytes);
  }
  if (dropped > 0) {
    late_rows_ += dropped;
    ++late_deliveries_;
  }
  if (open_.size() > open_windows_peak_) open_windows_peak_ = open_.size();
}

void WindowMachine::flush() {
  // One past the largest representable window: everything seals, and any
  // post-flush delivery is entirely late.
  seal_below(static_cast<long long>(std::numeric_limits<int>::max()) + 1);
}

void WindowMachine::seal_below(long long bound) {
  if (bound <= sealed_below_) return;
  sealed_below_ = bound;
  if (open_.empty()) return;
  // WindowMap iterates ascending, so windows seal oldest-first — the same
  // order the batch analysis walks a materialized series.
  std::size_t to_remove = 0;
  for (auto& [w, agg] : open_) {
    if (w >= bound) break;
    seal_(w, agg);
    for (auto& cell : agg.routes) pool_.put(std::move(cell));
    agg.routes.clear();
    ++to_remove;
    ++sealed_windows_;
  }
  if (to_remove > 0) {
    open_.remove_if([&](int w, const WindowAgg&) {
      return static_cast<long long>(w) < bound;
    });
  }
}

}  // namespace fbedge
