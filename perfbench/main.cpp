// fbedge_perfbench: the fbedge end-to-end benchmark binary.
//
//   fbedge_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--days D] [--setups K]
//                    [--packs-dir DIR] [--out-dir DIR] [--commit SHA]
//
// Untraced (--trace 0): sets the workload up and makes its first call, K
// times (setup_s is the median), then calls the workload's public entry
// point until S seconds have passed and reports medians over those calls. Traced (--trace 1):
// one setup, untraced calls for half the time, then traced rebuilds of the
// same call for the other half; reports per-layer metrics (medians over
// the traced calls), the time no span covers, and the tracing overhead.
//
// Output check: at the default seed and sizes every call's digests must
// equal the pinned values below; otherwise they must equal the first
// call's. A mismatching or lossy call counts all its groups as failed and
// the process exits 1. The last stdout line is the JSON result.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/simd.h"
#include "workloads.h"

namespace fs = std::filesystem;
using perfbench::CallResult;
using perfbench::Metrics;

namespace {

constexpr std::uint64_t kDefaultSeed = 2019;

/// Every workload runs on min(kMaxThreads, nproc) threads.
constexpr int kMaxThreads = 4;

/// Days of sessions per workload; every world has 4 groups per continent.
struct WorkloadSize {
  const char* name;
  int days;
};

constexpr WorkloadSize kSizes[] = {
    {"monitor_stream", 1},
    {"edge_warm", 4},
    {"whatif_sweep", 1},
    {"edge_faulted", 1},
};

/// Digests at seed 2019 and the default sizes above: the monitor verdict
/// hash / rows / windows, the edge digest (headline fields, Table 1/2
/// cells, exact fault counters), and the sweep's baseline followed by each
/// scenario's digest, in pack order.
struct Pin {
  const char* name;
  std::vector<std::uint64_t> digests;
};

const Pin kPins[] = {
    {"monitor_stream", {0x6fd763b0a0b4d15c, 666380, 2304}},
    {"edge_warm", {0xb7f12eb804e7c2ce}},
    {"whatif_sweep",
     {0xcc2de86ba0fe92b5, 0x98d1fae3212d2c82, 0x2c132ecc2bd0c010, 0xe9d8dacf07a8866a,
      0x6da2a6c362e254bf, 0x7d4963900ba80e8b, 0xcfb7a64eded611a2, 0xb7a093519b6d4df3,
      0x3fef097dba0a11ac}},
    // FaultCounters: truncated 6847, corrupt 6508, rejected 13307,
    // duplicated 6557, skewed 6665, task_aborts 3, task_retries 3,
    // lost_groups 0 — all hashed into the digest.
    {"edge_faulted", {0x68d6c851606c378a}},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"sessions_per_s", "sessions/s"}, {"cpu_s", "s"},
    {"rss_peak_mb", "MiB"},    {"ok_frac", "ratio"},
};

/// Every per-layer metric, printed on every workload (0 where the layer
/// does not run or the workload's trace cannot separate it).
constexpr MetricSpec kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"workload.sessions", "count"},
    {"workload.ns_per_session", "ns"},
    {"sampler.coalesce_s", "s"},
    {"sampler.coalesced_writes", "count"},
    {"sampler.ineligible_groups", "count"},
    {"goodput.hd_s", "s"},
    {"goodput.hd_rows", "count"},
    {"goodput.hd_testable_frac", "ratio"},
    {"stream.source_s", "s"},
    {"stream.deliver_s", "s"},
    {"stream.deliveries", "count"},
    {"stream.windows_sealed", "count"},
    {"stream.open_windows_peak", "count"},
    {"stream.late_rows", "count"},
    {"agg.verdict_s", "s"},
    {"agg.series_load_s", "s"},
    {"agg.series_save_s", "s"},
    {"agg.series_mb", "MiB"},
    {"agg.degradation_s", "s"},
    {"agg.opportunity_s", "s"},
    {"analysis.cache_key_s", "s"},
    {"analysis.artifact_read_s", "s"},
    {"analysis.artifact_read_mb_per_s", "MiB/s"},
    {"analysis.artifact_write_s", "s"},
    {"analysis.reduce_s", "s"},
    {"analysis.finish_s", "s"},
    {"analysis.edge_call_s", "s"},
    {"analysis.blob_hit_frac", "ratio"},
    {"scenario.apply_s", "s"},
    {"scenario.footprint_s", "s"},
    {"scenario.groups_recomputed", "count"},
    {"scenario.reuse_frac", "ratio"},
    {"faultsim.stage_s", "s"},
    {"faultsim.rejected_records", "count"},
    {"faultsim.task_retries", "count"},
    {"faultsim.lost_groups", "count"},
    {"runtime.utilization", "ratio"},
    {"runtime.steals", "count"},
    {"runtime.alloc_count", "count"},
    {"runtime.alloc_mb", "MiB"},
    {"trace.call_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{10};
  int trace{0};
  int days{0};     // 0 = workload default
  int setups{5};
  std::string packs_dir{"perfbench/packs"};
  std::string out_dir{".bench_out"};
  std::string commit{"unknown"};
};

[[noreturn]] void usage(const char* argv0, const char* problem) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--days D] [--setups K] "
               "[--packs-dir DIR] [--out-dir DIR] [--commit SHA]\n",
               argv0, problem, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    const auto number = [&](long long lo, long long hi) {
      const long long x = std::strtoll(v, &end, 10);
      if (*v == '\0' || *end != '\0' || x < lo || x > hi) {
        usage(argv[0], ("bad value for " + arg).c_str());
      }
      return x;
    };
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(number(0, 1LL << 62));
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds >= 0) || a.seconds > 3600) {
        usage(argv[0], "bad value for --seconds");
      }
    } else if (arg == "--trace") {
      a.trace = static_cast<int>(number(0, 1));
    } else if (arg == "--days") {
      a.days = static_cast<int>(number(1, 30));
    } else if (arg == "--setups") {
      a.setups = static_cast<int>(number(1, 50));
    } else if (arg == "--packs-dir") {
      a.packs_dir = v;
    } else if (arg == "--out-dir") {
      a.out_dir = v;
    } else if (arg == "--commit") {
      a.commit = v;
    } else {
      usage(argv[0], ("unknown flag " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage(argv[0], "--workload is required");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Returns the allocator's free pages to the kernel (so RSS is the live
/// set, not whatever earlier calls left cached in malloc arenas) and resets
/// the kernel's RSS high-water mark to the current RSS (Linux clear_refs
/// "5"); false where the reset is unsupported.
bool reset_rss_peak() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// High-water RSS in MiB: VmHWM, falling back to ru_maxrss.
double rss_peak_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string hex_list(const std::vector<std::uint64_t>& d) {
  std::string out;
  char buf[24];
  for (std::size_t i = 0; i < d.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s0x%016llx", i ? ", " : "",
                  static_cast<unsigned long long>(d[i]));
    out += buf;
  }
  return out;
}

/// Checks calls against the reference digests and tallies groups.
class OutputCheck {
 public:
  OutputCheck(const perfbench::Workload& workload, std::vector<std::uint64_t> pinned)
      : workload_(workload), pinned_(std::move(pinned)) {}

  /// Counts the call; prints why when it failed.
  void check(const CallResult& r, const char* what) {
    if (reference_.empty()) {
      reference_ = pinned_.empty() ? r.digests : pinned_;
      reference_lost_ = r.lost_groups;
      std::printf("reference: %s (%s)\n", pinned_.empty() ? "first call" : "pinned",
                  hex_list(reference_).c_str());
    }
    attempted_ += r.groups;
    std::string why;
    if (r.digests != reference_) why = "digest mismatch: " + hex_list(r.digests);
    if (r.lost_groups != reference_lost_) why += " lost_groups changed";
    if (!r.error.empty()) why += " " + r.error;
    if (why.empty()) return;
    failed_ += r.groups;
    ++failed_calls_;
    std::printf("FAILED %s call: %s [%s]\n", what, why.c_str(),
                workload_.describe(r).c_str());
  }

  bool correct() const { return failed_calls_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const perfbench::Workload& workload_;
  std::vector<std::uint64_t> pinned_;
  std::vector<std::uint64_t> reference_;
  std::uint64_t reference_lost_{0};
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::uint64_t failed_calls_{0};
};

void print_result(const OutputCheck& check, const Metrics& metrics,
                  const MetricSpec* specs, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              check.correct() ? "true" : "false",
              static_cast<unsigned long long>(check.attempted()),
              static_cast<unsigned long long>(check.failed()));
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = metrics.find(specs[i].name);
    double v = it == metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                specs[i].name, v, specs[i].unit);
  }
  std::printf("}}\n");
}

void print_table(const Metrics& metrics, const MetricSpec* specs, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = metrics.find(specs[i].name);
    std::printf("  %-34s %16.6f %s\n", specs[i].name,
                it == metrics.end() ? 0.0 : it->second, specs[i].unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSize* size = nullptr;
  for (const WorkloadSize& s : kSizes) {
    if (args.workload == s.name) size = &s;
  }
  if (size == nullptr) usage(argv[0], ("unknown workload " + args.workload).c_str());

  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  perfbench::WorkloadConfig config;
  config.name = args.workload;
  config.seed = args.seed;
  config.days = args.days > 0 ? args.days : size->days;
  // The monitor_stream rebuild runs every group on the calling thread, so
  // its traced run makes the untraced calls it is compared with on one
  // thread too.
  const bool one_thread = args.trace && args.workload == "monitor_stream";
  config.threads = one_thread ? 1 : std::min(kMaxThreads, nproc);
  config.packs_dir = args.packs_dir;
  config.scratch_dir = (fs::path(args.out_dir) / (args.workload + "-" +
                                                  std::to_string(::getpid())))
                           .string();
  std::error_code ec;
  fs::create_directories(config.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.scratch_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::vector<std::uint64_t> pinned;
  if (args.days == 0 && args.seed == kDefaultSeed) {
    for (const Pin& p : kPins) {
      if (args.workload == p.name) pinned = p.digests;
    }
  }

  std::printf("host: nproc=%d build=%s compiler=\"%s\" simd=%s commit=%s seed=%llu\n",
              nproc, PERFBENCH_BUILD_TYPE, __VERSION__,
              fbedge::simd::active_path_name(), args.commit.c_str(),
              static_cast<unsigned long long>(args.seed));
  std::printf("workload: %s days=%d threads=%d trace=%d seconds=%g\n",
              config.name.c_str(), config.days, config.threads, args.trace, args.seconds);

  auto workload = perfbench::make_workload(config);
  OutputCheck check(*workload, pinned);

  // ---- setup ---------------------------------------------------------------
  // One set-up is the workload's setup() plus its first call: the time from
  // nothing to a first result. The first call belongs here because it pays
  // for lazily initialized state (a process-wide memo, page faults on fresh
  // arenas) that later calls would hide. setup_s is the median of --setups
  // repetitions; the last one's digests become the run's reference.
  //
  // rss_peak_mb is the RSS high-water mark during the first set-up's first
  // call, taken after returning the allocator's cached pages to the kernel
  // (untimed): the peak a fresh process reaches. Later set-ups and calls
  // start from whatever earlier ones left in the per-thread malloc arenas,
  // which malloc_trim cannot release and which differs from process to
  // process; trimming before every timed call would also add page faults
  // to wall_s.
  std::vector<double> setups;
  double first_rss_peak = 0;
  bool rss_reset = true;
  for (int k = 0; k < (args.trace ? 1 : args.setups); ++k) {
    const double t0 = now_s();
    workload->setup();
    const double built = now_s() - t0;
    if (k == 0) rss_reset = reset_rss_peak();
    const double t1 = now_s();
    CallResult first = workload->call();
    setups.push_back(built + now_s() - t1);
    if (k == 0) first_rss_peak = rss_peak_mb();
    check.check(first, "first");
  }

  // ---- untraced calls --------------------------------------------------------
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  std::vector<double> walls, cpus;
  CallResult last;
  const double start = now_s();
  do {
    const double c0 = cpu_s();
    const double t0 = now_s();
    CallResult r = workload->call();
    const double wall = now_s() - t0;
    cpus.push_back(cpu_s() - c0);
    walls.push_back(wall);
    check.check(r, "timed");
    last = std::move(r);
  } while (now_s() - start < budget);
  const double wall_median = median(walls);

  Metrics metrics;
  if (!args.trace) {
    metrics["setup_s"] = median(setups);
    metrics["wall_s"] = wall_median;
    metrics["sessions_per_s"] =
        wall_median > 0 ? static_cast<double>(last.sessions) / wall_median : 0.0;
    metrics["cpu_s"] = median(cpus);
    metrics["rss_peak_mb"] = first_rss_peak;
    metrics["ok_frac"] =
        check.attempted() > 0
            ? 1.0 - static_cast<double>(check.failed()) / static_cast<double>(check.attempted())
            : 0.0;
    std::printf("calls: %zu  wall_s min=%.4f median=%.4f max=%.4f  setups: %zu\n",
                walls.size(), *std::min_element(walls.begin(), walls.end()),
                wall_median, *std::max_element(walls.begin(), walls.end()),
                setups.size());
    std::printf("rss_peak_mb: %s\n",
                rss_reset ? "first call, high-water mark reset after set-up"
                          : "reset unsupported; peak since process start");
    std::printf("last call: %s\n", workload->describe(last).c_str());
    std::printf("failed_frac: %.6f ratio (%llu of %llu groups)\n",
                1.0 - metrics["ok_frac"],
                static_cast<unsigned long long>(check.failed()),
                static_cast<unsigned long long>(check.attempted()));
    print_table(metrics, kEndToEnd, std::size(kEndToEnd));
    fs::remove_all(config.scratch_dir, ec);
    print_result(check, metrics, kEndToEnd, std::size(kEndToEnd));
    return check.correct() ? 0 : 1;
  }

  // ---- traced calls ----------------------------------------------------------
  perfbench::Tracer tracer;
  std::map<std::string, std::vector<double>> samples;
  const double traced_start = now_s();
  do {
    tracer.clear();
    Metrics layer;
    CallResult r = workload->traced_call(tracer, layer);
    check.check(r, "traced");
    const auto self = tracer.self_by_name();
    double call_s = 0;
    for (const auto& s : tracer.spans()) {
      if (s.parent < 0 && std::strcmp(s.name, "bench.call") == 0) {
        call_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (const auto& [name, secs] : self) {
      if (name.rfind("bench.", 0) != 0) layer[name + "_s"] = secs;
    }
    layer["trace.call_s"] = call_s;
    layer["trace.unattributed_s"] = self.count("bench.call") ? self.at("bench.call") : 0.0;
    layer["trace.overhead_s"] = call_s - wall_median;
    layer["trace.spans"] = static_cast<double>(tracer.spans().size());
    if (layer["workload.sessions"] > 0) {
      layer["workload.ns_per_session"] =
          1e9 * layer["workload.generate_s"] / layer["workload.sessions"];
    }
    if (layer["analysis.artifact_read_s"] > 0) {
      layer["analysis.artifact_read_mb_per_s"] =
          layer["analysis.artifact_mb"] / layer["analysis.artifact_read_s"];
    }
    for (const auto& [name, value] : layer) samples[name].push_back(value);
  } while (now_s() - traced_start < args.seconds - budget);
  for (const auto& [name, values] : samples) metrics[name] = median(values);

  // Per-layer self time of the last traced call. The "bench.*" roots are
  // not layers: "bench.call" self time is the unattributed remainder, and
  // "bench.probe" only groups side measurements made outside the call.
  std::map<std::string, double> by_layer;
  for (const auto& [name, secs] : tracer.self_by_name()) {
    if (name.rfind("bench.", 0) != 0) by_layer[name.substr(0, name.find('.'))] += secs;
  }
  std::printf("untraced wall_s median=%.4f over %zu calls; traced calls: %zu\n",
              wall_median, walls.size(), samples["trace.call_s"].size());
  std::printf("layer self time (last traced call):\n");
  for (const auto& [layer, secs] : by_layer) {
    std::printf("  %-10s %10.4f s\n", layer.c_str(), secs);
  }
  std::printf("  unattributed %8.4f s  tracing overhead %.4f s\n",
              metrics["trace.unattributed_s"], metrics["trace.overhead_s"]);
  print_table(metrics, kPerLayer, std::size(kPerLayer));
  const std::string spans_path =
      (fs::path(args.out_dir) /
       ("spans-" + args.workload + "-seed" + std::to_string(args.seed) + ".tsv"))
          .string();
  char header[256];
  std::snprintf(header, sizeof(header), "workload=%s seed=%llu nproc=%d build=%s simd=%s",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                nproc, PERFBENCH_BUILD_TYPE, fbedge::simd::active_path_name());
  if (!tracer.write_tsv(spans_path, header)) {
    std::printf("spans: cannot write %s\n", spans_path.c_str());
  } else {
    std::printf("spans: %s\n", spans_path.c_str());
  }
  fs::remove_all(config.scratch_dir, ec);
  print_result(check, metrics, kPerLayer, std::size(kPerLayer));
  return check.correct() ? 0 : 1;
}
