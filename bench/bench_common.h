// Shared configuration for the figure/table reproduction binaries.
//
// Each bench binary regenerates one figure or table of the paper from a
// freshly synthesized dataset. Sizes are chosen so a single binary runs in
// tens of seconds; pass a positive integer argument to scale the number of
// user groups per continent.
//
// Common flags (after the optional group-count positional):
//   --threads N      worker threads for the sharded runtime (default:
//                    hardware concurrency; results are byte-identical for
//                    any N, including 1)
//   --json PATH      also emit headline metrics as machine-readable JSON
//                    (metric name -> value) for cross-PR tracking
//   --cache-dir DIR  persist/reuse the ingest artifact (per-group series)
//                    in DIR; warm runs skip session generation and are
//                    byte-identical to cold runs. The FBEDGE_CACHE_DIR
//                    environment variable sets a default; the flag wins.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ingest_cache.h"
#include "runtime/pipeline.h"
#include "util/int_flags.h"
#include "workload/generator.h"
#include "workload/world.h"

namespace fbedge::bench {

/// Headline-metric sink for `--json`. Keys keep insertion order; write()
/// is a no-op when no path was given.
class JsonOutput {
 public:
  explicit JsonOutput(std::string path = {}) : path_(std::move(path)) {}

  void add(const std::string& name, double value) {
    entries_.emplace_back(name, value);
  }

  /// Writes `{"name": value, ...}`; returns false on I/O failure.
  bool write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot open %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.10g%s\n", entries_[i].first.c_str(),
                   entries_[i].second, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }

  bool enabled() const { return !path_.empty(); }

 private:
  std::vector<std::pair<std::string, double>> entries_;
  std::string path_;
};

struct RunConfig {
  WorldConfig world;
  DatasetConfig dataset;
  /// threads=0 -> hardware concurrency (resolve_threads).
  RuntimeOptions runtime;
  std::string json_path;
  /// Ingest-artifact cache directory (empty = caching off); see
  /// analysis/ingest_cache.h.
  IngestCacheOptions cache;
};

/// Prints the shared usage line and exits 2.
[[noreturn]] inline void common_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [groups] [--threads N] [--json PATH] "
               "[--cache-dir DIR]\n",
               argv0);
  std::exit(2);
}

/// Parses the shared command line: an optional positional integer (user
/// groups per continent, >= 1) plus --threads (>= 0), --json and
/// --cache-dir. Counts are whole-string integers (util/int_flags.h); a bad
/// count, a flag without its value or an unknown flag exits 2 with usage.
inline void parse_common_args(int argc, char** argv, RunConfig& rc,
                              int default_groups) {
  rc.world.groups_per_continent = default_groups;
  if (const char* env = std::getenv("FBEDGE_CACHE_DIR")) rc.cache.dir = env;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) common_usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--threads") {
      rc.runtime.threads = flags::parse_int(next(), 0, common_usage, argv[0]);
    } else if (arg == "--json") {
      rc.json_path = next();
    } else if (arg == "--cache-dir") {
      rc.cache.dir = next();
    } else if (!arg.empty() && arg[0] != '-') {
      rc.world.groups_per_continent = flags::parse_int(arg, 1, common_usage, argv[0]);
    } else {
      common_usage(argv[0]);
    }
  }
}

/// Traffic-characterization runs (Figs. 1-3): modest world, full sessions.
inline RunConfig traffic_run(int argc, char** argv) {
  RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 2;
  rc.dataset.seed = 2019;
  rc.dataset.days = 2;
  rc.dataset.session_scale = 0.5;
  parse_common_args(argc, argv, rc, 4);
  return rc;
}

/// Global-performance runs (Figs. 6-7): wider world for continent CDFs.
inline RunConfig performance_run(int argc, char** argv) {
  RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 2;
  rc.dataset.seed = 2019;
  rc.dataset.days = 2;
  rc.dataset.session_scale = 0.4;
  parse_common_args(argc, argv, rc, 12);
  return rc;
}

/// Edge analysis runs (Figs. 8-10, Tables 1-2): full 10-day span so the
/// temporal classifier has the paper's time base; fewer groups to
/// compensate.
inline RunConfig edge_run(int argc, char** argv) {
  RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 10;
  rc.dataset.seed = 2019;
  rc.dataset.days = 10;
  rc.dataset.session_scale = 1.0;
  parse_common_args(argc, argv, rc, 10);
  return rc;
}

inline void print_paper_note(const char* note) {
  std::printf("paper: %s\n", note);
}

/// Standard runtime block every bench and tool appends to its `--json`
/// output. Cache hits/misses stay 0 unless a cache dir was configured, and
/// the worker keys stay 0 unless a worker fleet ran (src/distrib/), so
/// committed BENCH files (always cold, uncached runs) are unaffected.
inline void add_runtime_json(JsonOutput& json, const RunStats& stats) {
  json.add("runtime_threads", stats.threads);
  // 1 = AVX2 kernels, 0 = scalar reference, -1 = unknown. CI's scalar-rot
  // guard asserts this is 1 under FBEDGE_SIMD=avx2 on an AVX2 runner.
  json.add("runtime_simd_avx2", stats.simd_avx2);
  json.add("runtime_wall_seconds", stats.wall_seconds);
  json.add("runtime_cpu_seconds", stats.cpu_seconds);
  json.add("runtime_alloc_count", static_cast<double>(stats.alloc_count));
  json.add("runtime_rss_peak", static_cast<double>(stats.rss_sampled_peak_bytes));
  json.add("runtime_steals", static_cast<double>(stats.steals));
  json.add("runtime_cache_hits", static_cast<double>(stats.cache_hits));
  json.add("runtime_cache_misses", static_cast<double>(stats.cache_misses));
  json.add("runtime_cache_read_bytes", static_cast<double>(stats.cache_read_bytes));
  json.add("runtime_cache_write_failures",
           static_cast<double>(stats.cache_write_failures));
  json.add("runtime_workers_spawned", static_cast<double>(stats.workers_spawned));
  json.add("runtime_worker_failures", static_cast<double>(stats.worker_failures));
  json.add("runtime_worker_retries",
           static_cast<double>(stats.faults.worker_retries));
  json.add("runtime_degraded_shards",
           static_cast<double>(stats.faults.degraded_shards));
  json.add("runtime_worker_rss_peak",
           static_cast<double>(stats.worker_rss_peak_bytes));
}

}  // namespace fbedge::bench
