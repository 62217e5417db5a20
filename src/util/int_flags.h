// Whole-string number flags for the fbedge tools: a value is the entire
// argument or a usage error, never atoi's best guess.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <system_error>

namespace fbedge::flags {

/// Prints the tool's usage line for `argv0` and exits 2.
using UsageFn = void (*)(const char* argv0);

namespace detail {

/// True when std::from_chars reads the whole of `text` into `value`: not
/// empty, no '+' or space in front, no trailing characters, in range.
template <typename T>
bool from_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace detail

/// The whole of `text` as a decimal int no smaller than `min`. Anything
/// else calls `usage(argv0)`.
inline int parse_int(const std::string& text, int min, UsageFn usage, const char* argv0) {
  int value = 0;
  if (!detail::from_whole(text, value) || value < min) usage(argv0);
  return value;
}

/// The whole of `text` as a finite decimal double in [min, max]. Anything
/// else calls `usage(argv0)`.
inline double parse_double(const std::string& text, double min, double max,
                           UsageFn usage, const char* argv0) {
  double value = 0;
  if (!detail::from_whole(text, value) || !std::isfinite(value) || value < min ||
      value > max) {
    usage(argv0);
  }
  return value;
}

/// The whole of `text` as a decimal unsigned 64-bit integer (a seed).
/// Anything else, a minus sign included, calls `usage(argv0)`.
inline std::uint64_t parse_u64(const std::string& text, UsageFn usage, const char* argv0) {
  std::uint64_t value = 0;
  if (!detail::from_whole(text, value)) usage(argv0);
  return value;
}

/// A hidden worker-mode spec "S/N": shard S of N workers.
struct ShardSpec {
  int shard{0};
  int count{1};
};

/// The whole of `text` as "S/N", two decimal ints with N >= 1 and
/// 0 <= S < N. Anything else calls `usage(argv0)`.
inline ShardSpec parse_shard_spec(const std::string& text, UsageFn usage,
                                  const char* argv0) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) usage(argv0);
  ShardSpec spec;
  spec.shard = parse_int(text.substr(0, slash), 0, usage, argv0);
  spec.count = parse_int(text.substr(slash + 1), 1, usage, argv0);
  if (spec.shard >= spec.count) usage(argv0);
  return spec;
}

}  // namespace fbedge::flags
