// fbedge_analyze — ingest a serialized sample dataset (from fbedge_gen or
// any compatible exporter) and run the paper's measurement pipeline over
// it: hosting filter, §3.2.5 coalescing, HDratio evaluation, and a
// Figure 6-style summary plus a per-group opportunity scan.
//
// Usage: fbedge_analyze [--threads T] [--cache-dir DIR] [--verbose] [FILE]
//        (reads stdin if no file; T must be a whole integer >= 0, else the
//        tool exits 2 with the usage line)
//
// --verbose reports (on stderr, so measurement output stays byte-identical)
// which columnar-kernel path the run dispatched to and why — the guard
// against an AVX2 build silently falling back to scalar.
//
// With --cache-dir (or FBEDGE_CACHE_DIR) and a FILE argument, the parsed
// ingest state (counters, summary CDFs, and every group's aggregation
// series) is persisted keyed by a content hash of the input bytes; a rerun
// over the same file skips parsing entirely and prints identical output.
// Stdin input is never cached (no stable identity to key on).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "agg/series_io.h"
#include "analysis/ingest_cache.h"
#include "fbedge/fbedge.h"
#include "util/int_flags.h"
#include "util/simd.h"

using namespace fbedge;

namespace {

/// Everything the analysis below needs from ingest — the cacheable state.
struct IngestState {
  WeightedCdf minrtt, hdratio;
  AggregationStore store;
  std::uint64_t sessions = 0, filtered = 0, malformed = 0;
};

void save_cdf(const WeightedCdf& cdf, ByteWriter& w) {
  w.u64(cdf.points().size());
  for (const auto& p : cdf.points()) {
    w.f64(p.value);
    w.f64(p.weight);
  }
}

bool load_cdf(ByteReader& r, WeightedCdf& cdf) {
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining() / 16) return false;
  std::vector<WeightedCdf::Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    WeightedCdf::Point p;
    p.value = r.f64();
    p.weight = r.f64();
    points.push_back(p);
  }
  if (!r.ok()) return false;
  cdf.assign_points(std::move(points));
  return true;
}

/// Streams the state into the artifact at `path`: blob 0 is the header
/// (counters + summary CDFs), blobs 1..N each hold one group's key followed
/// by its serialized series, in ascending key order so the artifact bytes
/// are independent of the unordered_map's iteration order.
bool write_state(const std::string& path, std::uint64_t key,
                 const IngestState& state) {
  std::vector<const std::pair<const UserGroupKey, GroupSeries>*> entries;
  entries.reserve(state.store.group_count());
  for (const auto& entry : state.store.groups()) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
    const UserGroupKey& ka = a->first;
    const UserGroupKey& kb = b->first;
    if (ka.pop.value != kb.pop.value) return ka.pop.value < kb.pop.value;
    if (ka.prefix.addr != kb.prefix.addr) return ka.prefix.addr < kb.prefix.addr;
    if (ka.prefix.length != kb.prefix.length) return ka.prefix.length < kb.prefix.length;
    return ka.country.value < kb.country.value;
  });
  IngestArtifactWriter writer;
  if (!writer.open(path, key, 1 + entries.size())) return false;
  ByteWriter w;
  w.u64(state.sessions);
  w.u64(state.filtered);
  w.u64(state.malformed);
  save_cdf(state.minrtt, w);
  save_cdf(state.hdratio, w);
  if (!writer.append(w.data())) return false;
  for (const auto* entry : entries) {
    w.clear();
    w.u32(entry->first.pop.value);
    w.u32(entry->first.prefix.addr);
    w.u32(static_cast<std::uint32_t>(entry->first.prefix.length));
    w.u32(entry->first.country.value);
    save_group_series(entry->second, w);
    if (!writer.append(w.data())) return false;
  }
  return writer.finish();
}

/// Reads the artifact at `path` blob by blob into `state`, each blob read
/// and checked once; the bytes read go to `stats`. False on any failure,
/// with `state` partly filled.
bool load_state(const std::string& path, std::uint64_t key, IngestState& state,
                RunStats& stats) {
  IngestArtifactReader reader;
  if (!reader.open_index(path, key, kAnyGroupCount)) return false;
  std::string blob;
  bool ok = reader.groups() > 0;
  for (std::size_t i = 0; ok && i < reader.groups(); ++i) {
    ok = reader.read(i, blob);
    ByteReader r(blob.data(), blob.size());
    if (i == 0) {
      state.sessions = r.u64();
      state.filtered = r.u64();
      state.malformed = r.u64();
      ok = ok && load_cdf(r, state.minrtt) && load_cdf(r, state.hdratio);
    } else {
      UserGroupKey group;
      group.pop = PopId{r.u32()};
      group.prefix.addr = r.u32();
      group.prefix.length = static_cast<int>(r.u32());
      group.country = CountryId{r.u32()};
      ok = ok && r.ok() &&
           load_group_series(r, state.store.series_for(group), nullptr);
    }
    ok = ok && r.ok() && r.remaining() == 0;
  }
  stats.cache_read_bytes += reader.bytes_read();
  return ok;
}

/// Content hash of the input dataset bytes (plus the format epoch and a
/// tool tag so edge-analysis artifacts can never collide with these).
std::uint64_t dataset_cache_key(const std::string& data) {
  Fnv64 h;
  h.u32(kIngestArtifactEpoch);
  h.bytes("fbedge_analyze", 14);
  h.u64(data.size());
  h.bytes(data.data(), data.size());
  return h.value();
}

void ingest_lines(std::istream& in, IngestState& state) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto sample = parse_sample(line);
    if (!sample) {
      ++state.malformed;
      continue;
    }
    if (!SessionSampler::keep_for_analysis(sample->client)) {
      ++state.filtered;
      continue;
    }
    ++state.sessions;
    const SessionMetrics m = compute_session_metrics(*sample);
    if (sample->route_index == 0) {
      state.minrtt.add(m.min_rtt);
      if (m.hdratio) state.hdratio.add(*m.hdratio);
    }
    UserGroupKey key{sample->pop, sample->client.bgp_prefix, sample->client.country};
    state.store.add_session(key, sample->client.continent, sample->established_at,
                            sample->route_index, m.min_rtt, m.hdratio, m.traffic);
  }
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads T] [--cache-dir DIR] [--verbose] [FILE]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RuntimeOptions runtime;
  std::string path;
  IngestCacheOptions cache;
  bool verbose = false;
  if (const char* env = std::getenv("FBEDGE_CACHE_DIR")) cache.dir = env;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      runtime.threads = flags::parse_int(argv[++i], 0, usage, argv[0]);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache.dir = argv[++i];
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (verbose) {
    std::fprintf(stderr,
                 "[simd] path=%s source=%s compiled_avx2=%d cpu_avx2=%d\n",
                 simd::active_path_name(), simd::dispatch_source(),
                 simd::compiled_avx2() ? 1 : 0,
                 simd::cpu_supports_avx2() ? 1 : 0);
  }

  RunStats stats;
  IngestState state;
  if (cache.enabled() && !path.empty()) {
    // Cached mode: the file is the cache identity, so read it whole.
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "fbedge_analyze: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string data = buffer.str();
    const std::uint64_t key = dataset_cache_key(data);
    const std::string artifact_path = ingest_artifact_path(cache.dir, key);
    using Clock = std::chrono::steady_clock;
    const auto load_start = Clock::now();
    const bool warm = load_state(artifact_path, key, state, stats);
    stats.cache_load_seconds +=
        std::chrono::duration<double>(Clock::now() - load_start).count();
    if (warm) {
      stats.cache_hits += state.store.group_count();
    } else {
      state = IngestState{};  // discard any partial load
      std::istringstream in(data);
      ingest_lines(in, state);
      const auto save_start = Clock::now();
      if (!write_state(artifact_path, key, state)) ++stats.cache_write_failures;
      stats.cache_save_seconds +=
          std::chrono::duration<double>(Clock::now() - save_start).count();
      stats.cache_misses += state.store.group_count();
    }
  } else {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (!path.empty()) {
      file.open(path);
      if (!file) {
        std::fprintf(stderr, "fbedge_analyze: cannot open %s\n", path.c_str());
        return 1;
      }
      in = &file;
    }
    ingest_lines(*in, state);
  }

  std::printf("ingested %llu sessions (%llu hosting-filtered, %llu malformed), "
              "%zu user groups\n",
              static_cast<unsigned long long>(state.sessions),
              static_cast<unsigned long long>(state.filtered),
              static_cast<unsigned long long>(state.malformed),
              state.store.group_count());
  if (state.sessions == 0) return 0;

  print_header("Performance summary (preferred route)");
  print_quantile_summary("MinRTT [ms]", state.minrtt, 1e3);
  if (!state.hdratio.empty()) {
    std::printf("HDratio: P(=0)=%.3f  P(=1)=%.3f  median=%.2f "
                "(%zu HD-testable sessions)\n",
                state.hdratio.fraction_at_or_below(0.0),
                1.0 - state.hdratio.fraction_at_or_below(0.999),
                state.hdratio.quantile(0.5), state.hdratio.size());
  }

  print_header("Routing opportunity scan (§6)");
  // Fan the per-group scans out over the runtime; the per-group hit counts
  // are summed in group order (integer sums, so exact for any thread count).
  std::vector<const GroupSeries*> series_list;
  series_list.reserve(state.store.group_count());
  for (const auto& [key, series] : state.store.groups()) series_list.push_back(&series);

  const std::vector<int> window_hits = parallel_map(
      series_list.size(), runtime,
      [&](std::size_t i) {
        int hits = 0;
        for (const auto& ow : analyze_opportunity(*series_list[i], {})) {
          if (ow.rtt_opportunity(0.005) || ow.hd_opportunity(0.05)) ++hits;
        }
        return hits;
      },
      &stats);

  int groups_with_opportunity = 0;
  int windows_with_opportunity = 0;
  for (const int hits : window_hits) {
    if (hits > 0) ++groups_with_opportunity;
    windows_with_opportunity += hits;
  }
  std::printf("groups with any >=5 ms / >=0.05 opportunity: %d of %zu "
              "(%d window hits)\n",
              groups_with_opportunity, state.store.group_count(),
              windows_with_opportunity);
  stats.print("fbedge_analyze");
  return 0;
}
