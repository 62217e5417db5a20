// fbedge_scale: multi-process shard coordinator over the ingest-artifact
// cache (src/distrib/).
//
// Coordinator mode runs the scale fleet job (every group of the world) on
// N worker processes, re-invocations of this binary in hidden
// --shard-worker mode. Each ingests its contiguous group block and
// publishes a shard ingest artifact + manifest into the shared cache
// directory; the coordinator then reduces shard by shard in shard order.
// stdout is byte-identical for any worker count — including --workers 0,
// which runs the plain in-process run_edge_analysis — so equivalence is
// checked with `diff`.
//
//   fbedge_scale [groups] [--days D] [--workers N] [--threads R]
//                [--worker-threads T] [--cache-dir DIR] [--max-attempts M]
//                [--worker-crash-rate P] [--fault-seed S] [--in-process]
//                [--sweep 1,2,4] [--json PATH]
//
//   --workers 0        in-process baseline (run_edge_analysis, no cache)
//   --workers N        N worker subprocesses (default 1)
//   --in-process       run workers as in-process calls instead of fork/exec
//                      (exercises identical coordinator logic; used where
//                      spawning is unavailable)
//   --sweep A,B,...    run each worker count against a fresh cold cache
//                      subdir, verify the result digests match, and report
//                      wall time / sessions-per-second / per-worker RSS
//                      per count (the BENCH_scale.json generator)
//
// Worker mode (spawned by the coordinator, not for direct use): build the
// world, build the scale fleet job, run_fleet_worker.
//   fbedge_scale --shard-worker S/N --attempt A ... --cache-dir DIR
//
// Values are checked whole: groups, --days and --max-attempts must be
// integers >= 1, --workers, --threads, --worker-threads and --attempt
// integers >= 0, --worker-crash-rate a number in [0, 1], --fault-seed an
// unsigned integer, --sweep a comma-separated list of integers >= 0 and
// --shard-worker S/N two integers with 0 <= S < N; --attempt is accepted
// only with --shard-worker. Anything else exits 2 with the usage line.
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/edge_analysis.h"
#include "analysis/format.h"
#include "bench_common.h"
#include "distrib/coordinator.h"
#include "distrib/subprocess.h"
#include "util/binio.h"
#include "util/int_flags.h"

using namespace fbedge;

namespace {

struct ScaleCli {
  int groups_per_continent{10};
  int days{10};
  int workers{1};
  int threads{0};         // reduce / baseline threads; 0 = hardware
  int worker_threads{1};  // threads inside each worker's ingest
  int max_attempts{2};
  double worker_crash_rate{0};
  std::uint64_t fault_seed{0};
  bool in_process{false};
  std::string cache_dir;
  std::string json_path;
  std::vector<int> sweep;
  // Hidden worker mode.
  bool worker_mode{false};
  int worker_shard{0};
  int worker_count{1};
  int worker_attempt{0};
  bool attempt_given{false};
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [groups] [--days D] [--workers N] [--threads R]\n"
               "          [--worker-threads T] [--cache-dir DIR] "
               "[--max-attempts M]\n"
               "          [--worker-crash-rate P] [--fault-seed S] "
               "[--in-process]\n"
               "          [--sweep 1,2,4] [--json PATH]\n",
               argv0);
  std::exit(2);
}

ScaleCli parse_cli(int argc, char** argv) {
  ScaleCli cli;
  if (const char* env = std::getenv("FBEDGE_CACHE_DIR")) cli.cache_dir = env;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--days") {
      cli.days = flags::parse_int(next(), 1, usage, argv[0]);
    } else if (arg == "--workers") {
      cli.workers = flags::parse_int(next(), 0, usage, argv[0]);
    } else if (arg == "--threads") {
      cli.threads = flags::parse_int(next(), 0, usage, argv[0]);
    } else if (arg == "--worker-threads") {
      cli.worker_threads = flags::parse_int(next(), 0, usage, argv[0]);
    } else if (arg == "--max-attempts") {
      cli.max_attempts = flags::parse_int(next(), 1, usage, argv[0]);
    } else if (arg == "--worker-crash-rate") {
      cli.worker_crash_rate = flags::parse_double(next(), 0, 1, usage, argv[0]);
    } else if (arg == "--fault-seed") {
      cli.fault_seed = flags::parse_u64(next(), usage, argv[0]);
    } else if (arg == "--in-process") {
      cli.in_process = true;
    } else if (arg == "--cache-dir") {
      cli.cache_dir = next();
    } else if (arg == "--json") {
      cli.json_path = next();
    } else if (arg == "--sweep") {
      // Every comma-separated item is a whole worker count (0 = the
      // in-process baseline), so an empty item or list is a usage error.
      const std::string list = next();
      for (std::size_t at = 0;;) {
        const std::size_t comma = list.find(',', at);
        cli.sweep.push_back(
            flags::parse_int(list.substr(at, comma - at), 0, usage, argv[0]));
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else if (arg == "--shard-worker") {
      const flags::ShardSpec spec = flags::parse_shard_spec(next(), usage, argv[0]);
      cli.worker_shard = spec.shard;
      cli.worker_count = spec.count;
      cli.worker_mode = true;
    } else if (arg == "--attempt") {
      cli.worker_attempt = flags::parse_int(next(), 0, usage, argv[0]);
      cli.attempt_given = true;
    } else if (!arg.empty() && arg[0] != '-') {
      cli.groups_per_continent = flags::parse_int(arg, 1, usage, argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (cli.attempt_given && !cli.worker_mode) usage(argv[0]);
  return cli;
}

/// The dataset every mode analyzes: the edge_run shape (seed 2019,
/// session_scale 1.0) with the CLI's group count and day span, so a
/// --workers 0 baseline and any worker partition see the same world.
void configure_run(const ScaleCli& cli, WorldConfig& world, DatasetConfig& dataset) {
  world.seed = 2019;
  world.days = cli.days;
  world.groups_per_continent = cli.groups_per_continent;
  dataset.seed = 2019;
  dataset.days = cli.days;
  dataset.session_scale = 1.0;
}

FaultPlan cli_faults(const ScaleCli& cli) {
  FaultPlan faults;
  faults.seed = cli.fault_seed;
  faults.worker_crash_rate = cli.worker_crash_rate;
  faults.worker_max_attempts = cli.max_attempts;
  return faults;
}

void digest_cdf(Fnv64& h, const WeightedCdf& cdf) {
  if (cdf.empty()) {
    h.u8(0);
    return;
  }
  h.u8(1);
  for (const auto& [value, fraction] : cdf.series(64)) {
    h.f64(value);
    h.f64(fraction);
  }
}

/// Order-stable FNV digest of every measurement field of the result
/// (counters excluded — a crash-injected run must digest identically to a
/// clean one). Printed in the report, so any cross-worker-count drift is
/// visible even when only deep table cells changed.
std::uint64_t result_digest(const EdgeAnalysisResult& r) {
  Fnv64 h;
  h.u64(static_cast<std::uint64_t>(r.groups_analyzed));
  h.u64(r.sessions_analyzed);
  h.f64(r.total_traffic);
  for (const WeightedCdf* cdf :
       {&r.degr_rtt, &r.degr_rtt_lower, &r.degr_rtt_upper, &r.degr_hd,
        &r.degr_hd_lower, &r.degr_hd_upper, &r.opp_rtt, &r.opp_rtt_lower,
        &r.opp_rtt_upper, &r.opp_hd, &r.opp_hd_lower, &r.opp_hd_upper,
        &r.fig10_peer_vs_transit, &r.fig10_transit_vs_transit,
        &r.fig10_private_vs_public}) {
    digest_cdf(h, *cdf);
  }
  for (const double v :
       {r.degr_valid_traffic_rtt, r.degr_valid_traffic_hd,
        r.opp_valid_traffic_rtt, r.opp_valid_traffic_hd, r.rtt_within_3ms,
        r.hd_within_0025, r.rtt_improvable_5ms, r.hd_improvable_005}) {
    h.f64(v);
  }
  for (const auto& [key, cell] : r.table1) {
    const auto& [kind, threshold, cls, scope] = key;
    h.u8(static_cast<std::uint8_t>(kind));
    h.u32(static_cast<std::uint32_t>(threshold));
    h.u8(static_cast<std::uint8_t>(cls));
    h.i64(scope);
    h.f64(cell.group_traffic);
    h.f64(cell.event_traffic);
  }
  for (const auto* table : {&r.table2_rtt, &r.table2_hd}) {
    for (const auto& [pair, row] : *table) {
      h.u8(static_cast<std::uint8_t>(pair.first));
      h.u8(static_cast<std::uint8_t>(pair.second));
      h.f64(row.absolute);
      h.f64(row.longer);
      h.f64(row.prepended);
    }
  }
  return h.value();
}

/// The measurement report: identical bytes for --workers 0 and any worker
/// partition of the same dataset (that is the scale-equivalence check).
void print_report(const EdgeAnalysisResult& result) {
  print_header("Fig. 8: degradation (scale run)");
  print_quantile_summary("MinRTT_P50 degradation (ms)", result.degr_rtt, 1000.0);
  print_quantile_summary("HDratio_P50 degradation", result.degr_hd);
  std::printf("valid traffic: rtt=%.3f hd=%.3f\n", result.degr_valid_traffic_rtt,
              result.degr_valid_traffic_hd);

  print_header("Fig. 9: opportunity (scale run)");
  print_quantile_summary("MinRTT_P50 pref-alt (ms)", result.opp_rtt, 1000.0);
  print_quantile_summary("HDratio_P50 alt-pref", result.opp_hd);
  std::printf("within: rtt_3ms=%.3f hd_0.025=%.3f  improvable: rtt_5ms=%.3f "
              "hd_0.05=%.3f\n",
              result.rtt_within_3ms, result.hd_within_0025,
              result.rtt_improvable_5ms, result.hd_improvable_005);

  print_table1(result, AnalysisKind::kDegradationRtt,
               {"+5ms", "+10ms", "+20ms", "+50ms"});
  print_table1(result, AnalysisKind::kDegradationHd,
               {"-0.05", "-0.1", "-0.2", "-0.5"});
  print_table1(result, AnalysisKind::kOpportunityRtt, {"-5ms", "-10ms"});
  print_table1(result, AnalysisKind::kOpportunityHd, {"+0.05"});

  std::printf("\ngroups analyzed: %d\n", result.groups_analyzed);
  std::printf("sessions analyzed: %llu\n",
              static_cast<unsigned long long>(result.sessions_analyzed));
  std::printf("result digest: %016llx\n",
              static_cast<unsigned long long>(result_digest(result)));
}

/// Builds the argv for one worker attempt (self re-invocation).
std::vector<std::string> worker_argv(const std::string& self, const ScaleCli& cli,
                                     const std::string& cache_dir, int shard,
                                     int attempt) {
  std::vector<std::string> argv;
  argv.push_back(self);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "--shard-worker");
  argv.push_back(buf);
  std::snprintf(buf, sizeof(buf), "%d/%d", shard, cli.workers);
  argv.push_back(buf);
  argv.push_back("--attempt");
  std::snprintf(buf, sizeof(buf), "%d", attempt);
  argv.push_back(buf);
  std::snprintf(buf, sizeof(buf), "%d", cli.groups_per_continent);
  argv.push_back(buf);
  argv.push_back("--days");
  std::snprintf(buf, sizeof(buf), "%d", cli.days);
  argv.push_back(buf);
  argv.push_back("--worker-threads");
  std::snprintf(buf, sizeof(buf), "%d", cli.worker_threads);
  argv.push_back(buf);
  argv.push_back("--cache-dir");
  argv.push_back(cache_dir);
  if (cli.worker_crash_rate > 0) {
    argv.push_back("--worker-crash-rate");
    std::snprintf(buf, sizeof(buf), "%.17g", cli.worker_crash_rate);
    argv.push_back(buf);
    argv.push_back("--fault-seed");
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(cli.fault_seed));
    argv.push_back(buf);
  }
  return argv;
}

int run_worker_mode(const ScaleCli& cli) {
  if (cli.cache_dir.empty()) {
    std::fprintf(stderr, "fbedge_scale: worker mode needs --cache-dir\n");
    return 2;
  }
  WorldConfig wc;
  DatasetConfig dataset;
  configure_run(cli, wc, dataset);
  const World world = build_world(wc);
  WorkerSpec spec;
  spec.shard = cli.worker_shard;
  spec.workers = cli.worker_count;
  spec.attempt = cli.worker_attempt;
  spec.cache_dir = cli.cache_dir;
  return run_fleet_worker(world, dataset, {},
                          scale_fleet_job(world, dataset, {}), spec,
                          cli_faults(cli), RuntimeOptions{cli.worker_threads});
}

struct ScaleRun {
  EdgeAnalysisResult result;
  RunStats stats;
  double wall_seconds{0};
};

ScaleRun run_once(const ScaleCli& cli, const World& world,
                  const DatasetConfig& dataset, const std::string& self,
                  const std::string& cache_dir, int workers) {
  ScaleRun run;
  const auto start = std::chrono::steady_clock::now();
  if (workers == 0) {
    const IngestCacheOptions cache{cache_dir};
    run.result = run_edge_analysis(world, dataset, {}, {}, {},
                                   RuntimeOptions{cli.threads}, &run.stats, {},
                                   cache);
  } else {
    FleetOptions options;
    options.workers = workers;
    options.worker_threads = cli.worker_threads;
    options.cache_dir = cache_dir;
    options.reduce_runtime = RuntimeOptions{cli.threads};
    options.faults = cli_faults(cli);
    if (!cli.in_process) {
      ScaleCli worker_cli = cli;
      worker_cli.workers = workers;
      options.launcher = [&, worker_cli](const FleetJob&, int shard,
                                         int attempt) {
        return spawn_worker(
            worker_argv(self, worker_cli, cache_dir, shard, attempt));
      };
    }
    run.result = run_scale_analysis(world, dataset, {}, {}, {}, options,
                                    &run.stats);
  }
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return run;
}

int run_sweep(const ScaleCli& cli, const std::string& self) {
  WorldConfig wc;
  DatasetConfig dataset;
  configure_run(cli, wc, dataset);
  const World world = build_world(wc);

  ::mkdir(cli.cache_dir.c_str(), 0777);  // parent for per-count subdirs
  bench::JsonOutput json(cli.json_path);
  json.add("groups", static_cast<double>(world.groups.size()));
  json.add("days", cli.days);

  std::uint64_t first_digest = 0;
  bool digests_match = true;
  std::uint64_t sessions = 0;
  double wall_workers1 = 0;
  std::printf("%8s %10s %12s %10s %10s %14s  %s\n", "workers", "wall_s",
              "sessions_per_s", "spawned", "failures", "worker_rss_mb",
              "digest");
  for (std::size_t i = 0; i < cli.sweep.size(); ++i) {
    const int workers = cli.sweep[i];
    ScaleCli run_cli = cli;
    run_cli.workers = workers;
    char sub[32];
    std::snprintf(sub, sizeof(sub), "/w%d", workers);
    const std::string cache_dir = cli.cache_dir + sub;
    const ScaleRun run =
        run_once(run_cli, world, dataset, self, cache_dir, workers);
    const std::uint64_t digest = result_digest(run.result);
    if (i == 0) {
      first_digest = digest;
      sessions = run.result.sessions_analyzed;
    } else if (digest != first_digest) {
      digests_match = false;
    }
    if (workers == 1) wall_workers1 = run.wall_seconds;
    const double per_s = run.wall_seconds > 0
                             ? static_cast<double>(run.result.sessions_analyzed) /
                                   run.wall_seconds
                             : 0;
    std::printf("%8d %10.2f %12.0f %10llu %10llu %14.1f  %016llx\n", workers,
                run.wall_seconds, per_s,
                static_cast<unsigned long long>(run.stats.workers_spawned),
                static_cast<unsigned long long>(run.stats.worker_failures),
                static_cast<double>(run.stats.worker_rss_peak_bytes) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(digest));
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "workers_%d_", workers);
    json.add(std::string(prefix) + "wall_seconds", run.wall_seconds);
    json.add(std::string(prefix) + "sessions_per_s", per_s);
    json.add(std::string(prefix) + "spawned",
             static_cast<double>(run.stats.workers_spawned));
    json.add(std::string(prefix) + "failures",
             static_cast<double>(run.stats.worker_failures));
    json.add(std::string(prefix) + "worker_rss_peak",
             static_cast<double>(run.stats.worker_rss_peak_bytes));
    if (workers == 1 || wall_workers1 > 0) {
      json.add(std::string(prefix) + "speedup_vs_1",
               run.wall_seconds > 0 ? wall_workers1 / run.wall_seconds : 0);
    }
  }
  std::printf("digests %s\n", digests_match ? "match" : "DIVERGE");
  json.add("sessions_analyzed", static_cast<double>(sessions));
  json.add("digests_match", digests_match ? 1 : 0);
  if (!json.write()) return 1;
  return digests_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const ScaleCli cli = parse_cli(argc, argv);
  if (cli.worker_mode) return run_worker_mode(cli);
  const std::string self = self_executable_path(argv[0]);

  if (!cli.sweep.empty()) {
    if (cli.cache_dir.empty()) {
      std::fprintf(stderr, "fbedge_scale: --sweep needs --cache-dir\n");
      return 2;
    }
    return run_sweep(cli, self);
  }

  if (cli.workers > 0 && cli.cache_dir.empty()) {
    std::fprintf(stderr, "fbedge_scale: --workers needs --cache-dir\n");
    return 2;
  }

  WorldConfig wc;
  DatasetConfig dataset;
  configure_run(cli, wc, dataset);
  const World world = build_world(wc);
  const ScaleRun run =
      run_once(cli, world, dataset, self, cli.cache_dir, cli.workers);

  print_report(run.result);
  run.stats.print("fbedge_scale");

  bench::JsonOutput json(cli.json_path);
  json.add("groups_analyzed", run.result.groups_analyzed);
  json.add("sessions_analyzed",
           static_cast<double>(run.result.sessions_analyzed));
  json.add("runtime_scale_wall_seconds", run.wall_seconds);
  json.add("runtime_sessions_per_second",
           run.wall_seconds > 0
               ? static_cast<double>(run.result.sessions_analyzed) /
                     run.wall_seconds
               : 0);
  bench::add_runtime_json(json, run.stats);
  return json.write() ? 0 : 1;
}
