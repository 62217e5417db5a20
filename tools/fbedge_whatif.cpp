// fbedge_whatif — run declarative what-if scenarios (src/scenario/) against
// the synthetic world and report the opportunity/degradation deltas vs
// baseline, the way the paper's pipeline was used operationally ("what
// happens if we drain this PoP during peak?").
//
// Usage: fbedge_whatif [groups] [--days N] [--threads N] [--json PATH]
//                      [--cache-dir DIR] [--scenario FILE]...
//                      [--sweep DIR] [--workers N]
//
// Prints one "=== name ===" metric block per run (baseline first), each
// ending in an FNV-1a verdict hash; scenario blocks additionally print
// per-metric deltas and the applied-perturbation counts. All stdout is
// byte-identical for any --threads; a scenario file with no deltas prints
// a block byte-identical to the baseline block (the CI whatif-equivalence
// gate). With --cache-dir, baseline and scenarios share the ingest cache —
// artifact keys hash the perturbed world contents, so they never collide.
//
// --sweep DIR loads every *.conf in DIR (sorted by name) and runs them as
// one incremental sweep (analysis/sweep.h): one pool pass analyzes every
// baseline group plus each scenario's affected groups, and each scenario
// reuses the baseline's results for the groups it does not touch. The
// metric blocks are byte-identical to running the same files via
// --scenario one at a time; each scenario block adds a "sweep:
// reused/recomputed" line (pure functions of world x pack, so still
// thread-count invariant). --workers N > 0 additionally fans each
// scenario's affected ingest across N worker processes through the distrib
// sweep fleet (requires --cache-dir; workers are this binary re-invoked in
// the hidden --sweep-worker mode).
//
// Numbers are checked whole: groups and --days must be integers >= 1,
// --threads, --workers and --attempt integers >= 0, and --sweep-worker S/N
// two integers with 0 <= S < N; anything else exits 2 with the usage line.
#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "analysis/whatif.h"
#include "bench_common.h"
#include "distrib/sweep_fleet.h"
#include "fbedge/fbedge.h"
#include "scenario/scenario.h"
#include "util/int_flags.h"

using namespace fbedge;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [groups] [--days N] [--threads N] [--json PATH] "
               "[--cache-dir DIR] [--scenario FILE]... "
               "[--sweep DIR] [--workers N]\n",
               argv0);
  std::exit(2);
}

/// Every *.conf in `dir`, sorted by name so the scenario order — and
/// therefore stdout — is independent of readdir order.
std::vector<std::string> list_scenario_files(const std::string& dir) {
  std::vector<std::string> paths;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "fbedge_whatif: cannot open sweep dir %s\n",
                 dir.c_str());
    std::exit(1);
  }
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    constexpr const char* kExt = ".conf";
    if (name.size() > 5 && name.compare(name.size() - 5, 5, kExt) == 0) {
      std::string path = dir;
      if (!path.empty() && path.back() != '/') path.push_back('/');
      paths.push_back(path + name);
    }
  }
  ::closedir(d);
  std::sort(paths.begin(), paths.end());
  return paths;
}

ScenarioPack load_pack(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "fbedge_whatif: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  ScenarioParseResult parsed = parse_scenario(buffer.str());
  if (!parsed.ok) {
    std::fprintf(stderr, "fbedge_whatif: %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    std::exit(1);
  }
  if (parsed.pack.name.empty()) parsed.pack.name = path;
  return std::move(parsed.pack);
}

void print_scenario_block(const WhatifReport& baseline,
                          const WhatifReport& report, const ScenarioPack& pack,
                          const FaultCounters& faults) {
  std::printf("=== scenario %s ===\n", pack.name.c_str());
  print_whatif_report(report);
  if (!pack.empty()) {
    // Scenario counters are pure functions of (pack, world), so they are
    // safe on the thread-count-invariant stdout.
    std::printf(
        "applied: drained=%llu depref=%llu flash=%llu cable_cut=%llu\n",
        static_cast<unsigned long long>(faults.scenario_drained_groups),
        static_cast<unsigned long long>(faults.scenario_depref_groups),
        static_cast<unsigned long long>(faults.scenario_flash_groups),
        static_cast<unsigned long long>(faults.scenario_cable_cut_groups));
    print_whatif_deltas(baseline, report);
  }
}

void add_json_metrics(bench::JsonOutput& json, const std::string& prefix,
                      const WhatifReport& report) {
  for (const auto& [name, value] : report.metrics) {
    json.add(prefix + name, value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 10;
  rc.dataset.seed = 2019;
  rc.dataset.days = 10;
  rc.dataset.session_scale = 1.0;
  rc.world.groups_per_continent = 6;
  if (const char* env = std::getenv("FBEDGE_CACHE_DIR")) rc.cache.dir = env;

  std::vector<std::string> scenario_paths;
  std::string sweep_dir;
  int sweep_workers = 0;
  int worker_shard = -1;
  int worker_count = 0;
  int worker_attempt = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      rc.runtime.threads = flags::parse_int(argv[++i], 0, usage, argv[0]);
    } else if (arg == "--days" && i + 1 < argc) {
      rc.world.days = flags::parse_int(argv[++i], 1, usage, argv[0]);
      rc.dataset.days = rc.world.days;
    } else if (arg == "--json" && i + 1 < argc) {
      rc.json_path = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      rc.cache.dir = argv[++i];
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_paths.emplace_back(argv[++i]);
    } else if (arg == "--sweep" && i + 1 < argc) {
      sweep_dir = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      sweep_workers = flags::parse_int(argv[++i], 0, usage, argv[0]);
    } else if (arg == "--sweep-worker" && i + 1 < argc) {
      // Hidden worker mode: "--sweep-worker S/N" = shard S of N.
      const flags::ShardSpec spec = flags::parse_shard_spec(argv[++i], usage, argv[0]);
      worker_shard = spec.shard;
      worker_count = spec.count;
    } else if (arg == "--attempt" && i + 1 < argc) {
      worker_attempt = flags::parse_int(argv[++i], 0, usage, argv[0]);
    } else if (!arg.empty() && arg[0] != '-') {
      rc.world.groups_per_continent = flags::parse_int(arg, 1, usage, argv[0]);
    } else {
      usage(argv[0]);
    }
  }

  if (!sweep_dir.empty()) {
    for (const std::string& path : list_scenario_files(sweep_dir)) {
      scenario_paths.push_back(path);
    }
  }

  std::vector<ScenarioPack> packs;
  packs.reserve(scenario_paths.size());
  for (const auto& path : scenario_paths) {
    packs.push_back(load_pack(path));
  }

  const World world = build_world(rc.world);
  RunStats stats;

  // ---- hidden sweep-worker mode: one shard of one scenario's affected
  // ingest, then exit with the worker's status (the sweep fleet's
  // launcher re-invokes this binary here).
  if (worker_shard >= 0) {
    if (packs.size() != 1 || rc.cache.dir.empty()) {
      std::fprintf(stderr,
                   "fbedge_whatif: --sweep-worker needs exactly one "
                   "--scenario and a --cache-dir\n");
      return 2;
    }
    SweepWorkerSpec spec;
    spec.shard = worker_shard;
    spec.workers = worker_count;
    spec.attempt = worker_attempt;
    spec.cache_dir = rc.cache.dir;
    return run_sweep_worker(world, rc.dataset, {}, packs[0], spec, {},
                            rc.runtime);
  }

  // ---- sweep mode: one pass over the baseline and every pack's footprint --
  if (!sweep_dir.empty()) {
    SweepOutcome outcome;
    if (sweep_workers > 0) {
      if (rc.cache.dir.empty()) {
        std::fprintf(stderr, "fbedge_whatif: --workers needs --cache-dir\n");
        return 2;
      }
      SweepFleetOptions options;
      options.workers = sweep_workers;
      options.worker_threads = rc.runtime.threads;
      options.cache_dir = rc.cache.dir;
      options.reduce_runtime = rc.runtime;
      const std::string self = self_executable_path(argv[0]);
      options.launcher = [&](int scenario, int shard, int attempt) {
        char shard_arg[32];
        std::snprintf(shard_arg, sizeof(shard_arg), "%d/%d", shard,
                      sweep_workers);
        const std::vector<std::string> worker_argv = {
            self,
            std::to_string(rc.world.groups_per_continent),
            "--days", std::to_string(rc.world.days),
            "--threads", std::to_string(rc.runtime.threads),
            "--cache-dir", rc.cache.dir,
            "--scenario", scenario_paths[static_cast<std::size_t>(scenario)],
            "--sweep-worker", shard_arg,
            "--attempt", std::to_string(attempt)};
        return spawn_worker(worker_argv);
      };
      outcome = run_sweep_analysis(world, rc.dataset, {}, {}, {}, packs,
                                   options, &stats);
    } else {
      outcome = run_scenario_sweep(world, rc.dataset, {}, {}, {}, packs,
                                   rc.runtime, &stats, {}, rc.cache);
    }

    const WhatifReport baseline = whatif_report(outcome.baseline);
    std::printf("=== baseline ===\n");
    print_whatif_report(baseline);
    bench::JsonOutput json(rc.json_path);
    add_json_metrics(json, "baseline_", baseline);

    std::uint64_t total_reused = 0;
    std::uint64_t total_recomputed = 0;
    for (const SweepScenarioResult& scen : outcome.scenarios) {
      const WhatifReport report = whatif_report(scen.result);
      print_scenario_block(baseline, report, scen.pack, scen.result.faults);
      const std::uint64_t reused = scen.result.faults.scenario_groups_reused;
      const std::uint64_t recomputed =
          scen.result.faults.scenario_groups_recomputed;
      std::printf("sweep: reused=%llu recomputed=%llu\n",
                  static_cast<unsigned long long>(reused),
                  static_cast<unsigned long long>(recomputed));
      total_reused += reused;
      total_recomputed += recomputed;
      add_json_metrics(json, scen.pack.name + "_", report);
      json.add(scen.pack.name + "_sweep_groups_reused",
               static_cast<double>(reused));
      json.add(scen.pack.name + "_sweep_groups_recomputed",
               static_cast<double>(recomputed));
    }
    json.add("sweep_groups_reused", static_cast<double>(total_reused));
    json.add("sweep_groups_recomputed", static_cast<double>(total_recomputed));
    bench::add_runtime_json(json, stats);
    stats.print("fbedge_whatif");
    return json.write() ? 0 : 1;
  }

  const auto baseline_result =
      run_edge_analysis(world, rc.dataset, {}, {}, {}, rc.runtime, &stats, {},
                        rc.cache);
  const WhatifReport baseline = whatif_report(baseline_result);
  std::printf("=== baseline ===\n");
  print_whatif_report(baseline);

  bench::JsonOutput json(rc.json_path);
  add_json_metrics(json, "baseline_", baseline);

  for (const auto& pack : packs) {
    const auto result = run_edge_analysis(world, rc.dataset, {}, {}, {},
                                          rc.runtime, &stats, {}, rc.cache,
                                          pack);
    const WhatifReport report = whatif_report(result);
    print_scenario_block(baseline, report, pack, result.faults);
    add_json_metrics(json, pack.name + "_", report);
  }

  bench::add_runtime_json(json, stats);
  stats.print("fbedge_whatif");
  return json.write() ? 0 : 1;
}
