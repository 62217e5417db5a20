// Whole-string integer flags for the fbedge tools: a count is the entire
// argument or a usage error, never atoi's best guess.
#pragma once

#include <charconv>
#include <string>
#include <system_error>

namespace fbedge::flags {

/// The whole of `text` as a decimal int no smaller than `min`. Anything
/// else (empty, a sign or space in front, trailing characters, out of
/// range) calls `usage(argv0)`, which prints the tool's usage line and
/// exits 2.
inline int parse_int(const std::string& text, int min,
                     void (*usage)(const char* argv0), const char* argv0) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min) usage(argv0);
  return value;
}

}  // namespace fbedge::flags
