// Incremental scenario-sweep engine: K scenarios for the cost of one
// baseline ingest plus only the perturbed groups.
//
// fbedge_whatif's per-scenario cost used to be a full re-ingest: apply the
// pack to a copied world, regenerate every group's sessions, re-analyze.
// But scenario deltas are pure seed x site x key perturbations of the
// groups matching a small topology footprint (scenario/sweep.h), and
// per-group ingest is seeded from the group key alone — groups outside
// affected_groups(world, pack) produce bitwise-identical series under the
// perturbed world. run_scenario_sweep() exploits that:
//
//   1. Apply every pack, resolve its footprint, and ask the fleet hook (if
//      any) for each scenario's affected blobs.
//   2. Run one pool pass (analysis/edge_reduce.h reduce_sweep_pass) over
//      every baseline group — its artifact served whole or not at all by
//      run_cached_pass — plus every (scenario, affected group) pair under
//      its perturbed world, heaviest first, so the slow groups of every
//      scenario overlap.
//   3. Fold the baseline's partials in ascending group-id order, and each
//      scenario's the same way with its affected partials in place of the
//      baseline's. An unaffected group's baseline partial is exactly what
//      an independent run would compute for it, so every scenario's result
//      is byte-identical to an independent run_edge_analysis of the same
//      pack at any --threads — the sweep-equivalence CI job and the
//      verdict-hash differentials in tests pin this exactly.
//
// Every reuse decision is counted (FaultCounters::scenario_groups_reused
// / scenario_groups_recomputed, recountable as |groups| - |affected| and
// |affected|). Faulted plans bypass reuse in both directions: a fault
// plan with any injection site enabled degrades the sweep to independent
// full runs (faulted series must never be spliced, and reused clean
// series would silently disable the injection under test), and the reuse
// counters stay zero.
//
// The affected-group ingest can be farmed out to a worker fleet: the
// distrib coordinator (src/distrib/sweep_fleet.h) passes a
// SweepAffectedBlobFn that spawns one shard fleet per scenario before the
// pass and feeds the resulting blobs back; a shard that degrades hands
// back empty blobs and those groups cold-ingest in the pass —
// byte-identical output, just slower, mirroring run_scale_analysis's
// degrade policy.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/edge_analysis.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace fbedge {

/// One scenario's slice of a sweep.
struct SweepScenarioResult {
  ScenarioPack pack;
  /// Ascending group ids re-ingested under the perturbed world (empty for
  /// faulted sweeps, which run every group independently).
  std::vector<std::size_t> affected;
  /// Byte-identical to run_edge_analysis(world, ..., pack); faults carry
  /// the applied scenario_* counters plus the sweep reuse decisions.
  EdgeAnalysisResult result;
};

/// Baseline plus every scenario, in pack order.
struct SweepOutcome {
  EdgeAnalysisResult baseline;
  std::vector<SweepScenarioResult> scenarios;
};

/// Optional provider of pre-ingested blobs for one scenario's affected
/// groups (the distrib fleet hook). Called once per scenario with a
/// non-empty footprint, in pack order and before the pass, with the
/// perturbed world and the ascending affected group ids; on success it
/// fills `blobs` with one serialized GroupSeries per affected group (same
/// order) and returns true. An empty string — or returning false — means
/// "no blob": those groups cold-ingest in the pass under the perturbed
/// world, so a degraded or absent provider only costs time, never bytes.
using SweepAffectedBlobFn = std::function<bool(
    std::size_t scenario_index, const ScenarioPack& pack,
    const World& perturbed, const std::vector<std::size_t>& affected,
    std::vector<std::string>& blobs)>;

/// Runs `packs` as an incremental sweep over `world`. Output contract:
/// `baseline` is byte-identical to run_edge_analysis without a pack, and
/// scenarios[k].result to run_edge_analysis with packs[k], for any
/// --threads — whether each baseline group came from a warm artifact
/// blob or a cold ingest, and whether affected blobs came from
/// `affected_blobs` or in-process ingest. With a cache dir the baseline is
/// served whole from its artifact or not at all (run_cached_pass), and
/// RunStats counts n baseline cache hits or n misses; when a bad blob
/// sends the baseline back cold, the warm pass's scenario results stand. `faults` enabled
/// degrades to independent full runs (reuse bypassed, counters zero).
SweepOutcome run_scenario_sweep(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds, const ComparisonConfig& comparison,
    GoodputConfig goodput, const std::vector<ScenarioPack>& packs,
    const RuntimeOptions& runtime, RunStats* stats = nullptr,
    const FaultPlan& faults = {}, const IngestCacheOptions& cache = {},
    const SweepAffectedBlobFn& affected_blobs = nullptr);

}  // namespace fbedge
