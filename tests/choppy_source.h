// A ByteSource for tests of the refilling ByteReader (util/binio.h): it
// hands out a byte string a few bytes at a time, each window in a fresh
// allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/binio.h"
#include "util/rng.h"

namespace fbedge {

/// Hands out `bytes` in windows: each refill adds 1 to `max_step` new
/// bytes, drawn from `seed` (more when the reader needs more at once), and
/// copies the window into a fresh allocation, freeing the one before. A
/// pointer kept across a refill then reads freed memory, which ASan
/// reports as a heap-use-after-free.
class ChoppySource final : public ByteSource {
 public:
  ChoppySource(const std::string& bytes, std::size_t max_step, std::uint64_t seed)
      : bytes_(bytes), max_step_(max_step), rng_(seed) {}

  std::span<const unsigned char> refill(const unsigned char* unread, std::size_t keep,
                                        std::size_t need) override {
    const auto step = static_cast<std::size_t>(
        rng_.uniform_int(1, static_cast<std::int64_t>(max_step_)));
    const std::size_t fresh =
        std::min(std::max(need - keep, step), bytes_.size() - next_);
    std::vector<unsigned char> window(keep + fresh);
    if (keep > 0) std::memcpy(window.data(), unread, keep);
    if (fresh > 0) std::memcpy(window.data() + keep, bytes_.data() + next_, fresh);
    next_ += fresh;
    ++refills_;
    largest_window_ = std::max(largest_window_, window.size());
    window_.swap(window);  // the old window is freed here
    return window_;
  }

  std::size_t refills() const { return refills_; }
  std::size_t largest_window() const { return largest_window_; }

 private:
  const std::string& bytes_;
  std::size_t max_step_;
  Rng rng_;
  std::size_t next_{0};
  std::size_t refills_{0};
  std::size_t largest_window_{0};
  std::vector<unsigned char> window_;
};

}  // namespace fbedge
