// Fleet-backed scenario sweeps: the affected-group ingest of each sweep
// scenario farmed out to shard workers.
//
// run_scenario_sweep (analysis/sweep.h) re-ingests only a scenario's
// affected groups and reuses the baseline's results for everything else.
// That affected ingest is the sweep's remaining cost, and it parallelizes
// exactly like the full-world ingest the scale coordinator distributes —
// so run_sweep_analysis() wires a SweepAffectedBlobFn that runs one worker
// fleet per scenario, before the sweep's pool pass, through the same
// protocol as a scale run (coordinator.h): one FleetJob, one worker body
// (run_fleet_worker, also fbedge_whatif's hidden --sweep-worker mode), one
// retry loop (run_worker_fleet) and one shard open (open_fleet_shard).
//
//   * A scenario's job (sweep_fleet_job) is its ascending affected-group
//     list, usually non-contiguous group ids, keyed by the content hash of
//     what the workers actually ingest — ingest_cache_key(perturbed world)
//     — combined with a salt and scenario_pack_hash(pack), so no two
//     scenarios (nor a sweep and a plain scale run over the same cache
//     dir) ever collide.
//   * The fleet's workers ingest from the perturbed world. The slice blobs
//     are collected into the sweep's pass in shard order.
//   * A shard that exhausts its attempt budget (or whose manifest or index
//     fails validation) hands back empty blobs, and so does a blob that
//     fails its checksum; run_scenario_sweep cold-ingests those groups in
//     its pass — byte-identical output, counted in degraded_shards, never
//     silent.
//
// Only worker faults may be injected here (the shared cache must never
// hold faulted series), and they never bypass reuse: run_sweep_analysis
// passes a clean plan into run_scenario_sweep and keeps the crash plan for
// the fleet loop alone.
#pragma once

#include <vector>

#include "analysis/sweep.h"
#include "distrib/coordinator.h"

namespace fbedge {

/// One scenario's job: the groups `pack` affects in `world`, keyed by the
/// content hash of `perturbed` (= apply_scenario(world, pack)) x the
/// scenario pack hash.
FleetJob sweep_fleet_job(const World& world, const World& perturbed,
                         const DatasetConfig& config,
                         const GoodputConfig& goodput, const ScenarioPack& pack);

/// run_scenario_sweep with each scenario's affected ingest distributed
/// over a worker fleet. Output contract is inherited unchanged: baseline
/// and every scenario result are byte-identical to independent
/// run_edge_analysis calls, for any worker count, worker thread count,
/// and reduce thread count. options.cache_dir is also the sweep's ingest
/// cache dir for the baseline. Spawn-phase counters (crashes, retries,
/// degraded shards, spawned, RSS peak) fold into `stats` in scenario ×
/// shard order.
SweepOutcome run_sweep_analysis(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds = {},
    const ComparisonConfig& comparison = {}, GoodputConfig goodput = {},
    const std::vector<ScenarioPack>& packs = {},
    const FleetOptions& options = {}, RunStats* stats = nullptr);

}  // namespace fbedge
