// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, group): one call into a library
// layer, timed with steady_clock from the benchmark's own code. Spans nest
// through a stack, so a span's parent is whichever span was open when it
// began. A span's self time is its duration minus the durations of its
// direct children; a layer's self time is the sum over the spans whose name
// starts with "<layer>.". Spans are only recorded on the calling thread —
// calls that fan out to the runtime pool are one span around the whole
// fan-out.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::int32_t group;   // user group id, -1 when not per group
  };

  /// RAII guard: the span ends when the scope does.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int32_t group) : t_(t) {
      index_ = t_.begin(name, group);
    }
    ~Scope() { t_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_;
  };

  Scope span(const char* name, std::int32_t group = -1) {
    return Scope(*this, name, group);
  }

  void clear() {
    spans_.clear();
    open_.clear();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in seconds per span name.
  std::map<std::string, double> self_by_name() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    }
    return out;
  }

  /// Writes one tab-separated line per span (times relative to the first
  /// span's start). Returns false on I/O failure.
  bool write_tsv(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "# %s\n# index\tname\tstart_ns\tend_ns\tparent\tgroup\n",
                 header.c_str());
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%d\n", i, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent, s.group);
    }
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::int32_t begin(const char* name, std::int32_t group) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, group});
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }

  void end(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
