// Fleet-backed scenario sweeps: the affected-group ingest of each sweep
// scenario farmed out to shard workers.
//
// run_scenario_sweep (analysis/sweep.h) re-ingests only a scenario's
// affected groups and reuses the baseline's results for everything else.
// That affected ingest is the sweep's remaining cost, and it parallelizes
// exactly like the full-world ingest the scale coordinator distributes —
// so run_sweep_analysis() wires a SweepAffectedBlobFn that spawns one
// worker fleet per scenario, before the sweep's pool pass, through the
// shared run_worker_fleet retry loop (coordinator.h):
//
//   * The fleet's base key is the content hash of what the workers will
//     actually ingest — ingest_cache_key(perturbed world) — combined with
//     scenario_pack_hash(pack), so no two scenarios (nor a sweep and a
//     plain scale run over the same cache dir) ever collide.
//   * A sweep shard's work is a slice of the ascending affected-group
//     *list* (usually non-contiguous group ids), partitioned by ShardPlan
//     over the list length. Manifests record slice indices as their group
//     range, and artifacts are keyed by shard_artifact_key(base, slice) —
//     the same completion-marker protocol as scale shards.
//   * A worker (run_sweep_worker, also fbedge_whatif's hidden
//     --sweep-worker mode) checks the injected-crash decision first, then
//     probes for an already-published shard (idempotent re-spawn), then
//     streams its slice through ingest_groups_to_blobs into an
//     IngestArtifactWriter and publishes the manifest last.
//   * A shard that exhausts its attempt budget (or whose artifact fails
//     validation) hands back empty blobs; run_scenario_sweep cold-ingests
//     those groups in its pass — byte-identical output, counted in
//     degraded_shards, never silent.
//
// Only worker faults may be injected here (the shared cache must never
// hold faulted series), and they never bypass reuse: run_sweep_analysis
// passes a clean plan into run_scenario_sweep and keeps the crash plan for
// the fleet loop alone.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "distrib/coordinator.h"

namespace fbedge {

/// Identity of one sweep-worker attempt: shard `shard` of a `workers`-way
/// partition of one scenario's affected-group list.
struct SweepWorkerSpec {
  int shard{0};
  int workers{1};
  int attempt{0};
  std::string cache_dir;
};

/// Base key of one scenario's shard artifacts: content hash of the
/// perturbed world the workers ingest x the scenario pack hash.
std::uint64_t sweep_base_key(const World& perturbed, const DatasetConfig& config,
                             const GoodputConfig& goodput,
                             const ScenarioPack& pack);

/// The sweep-worker body. `world` is the *baseline* world; the worker
/// re-derives the perturbed world and affected list from `pack` (both are
/// pure functions, so every attempt and the coordinator agree bit-for-bit
/// on the work). Returns 0 on success, kWorkerCrashExit on injected
/// crash, 1 on I/O failure.
int run_sweep_worker(const World& world, const DatasetConfig& config,
                     GoodputConfig goodput, const ScenarioPack& pack,
                     const SweepWorkerSpec& spec, const FaultPlan& faults = {},
                     const RuntimeOptions& runtime = RuntimeOptions::sequential(),
                     RunStats* stats = nullptr);

/// Fleet knobs (one fleet per scenario; the baseline ingest stays
/// in-process, warmed by the ingest-artifact cache like any other run).
struct SweepFleetOptions {
  /// Workers (= shards) per scenario fleet.
  int workers{1};
  /// Threads inside each worker's ingest.
  int worker_threads{1};
  /// Shared artifact + manifest directory. Required; also used as the
  /// sweep's ingest cache dir for the baseline.
  std::string cache_dir;
  /// Threads for the sweep's pool pass (and any cold-ingest fallback).
  RuntimeOptions reduce_runtime = RuntimeOptions::sequential();
  /// Fault plan for the fleet's spawn-retry loop. Only worker faults may
  /// be set; data faults are rejected (shared cache).
  FaultPlan faults;
  /// Launches one worker attempt for `scenario` and blocks until it exits
  /// (fbedge_whatif wires this to spawn_worker on itself in --sweep-worker
  /// mode). Null = run the worker in-process.
  std::function<WorkerExit(int scenario, int shard, int attempt)> launcher;
};

/// run_scenario_sweep with each scenario's affected ingest distributed
/// over a worker fleet. Output contract is inherited unchanged: baseline
/// and every scenario result are byte-identical to independent
/// run_edge_analysis calls, for any worker count, worker thread count,
/// and reduce thread count. Spawn-phase counters (crashes, retries,
/// degraded shards, spawned, RSS peak) fold into `stats` in scenario ×
/// shard order.
SweepOutcome run_sweep_analysis(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds = {},
    const ComparisonConfig& comparison = {}, GoodputConfig goodput = {},
    const std::vector<ScenarioPack>& packs = {},
    const SweepFleetOptions& options = {}, RunStats* stats = nullptr);

}  // namespace fbedge
