// One-pass sweep runner: the baseline and every scenario's affected groups
// in one reduce_sweep_pass, each scenario reusing the baseline partials of
// the groups it does not touch.
#include "analysis/sweep.h"

#include <utility>

#include "analysis/edge_reduce.h"
#include "util/expect.h"

namespace fbedge {

SweepOutcome run_scenario_sweep(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds, const ComparisonConfig& comparison,
    GoodputConfig goodput, const std::vector<ScenarioPack>& packs,
    const RuntimeOptions& runtime, RunStats* stats, const FaultPlan& faults,
    const IngestCacheOptions& cache, const SweepAffectedBlobFn& affected_blobs) {
  SweepOutcome out;
  out.scenarios.reserve(packs.size());

  // Faulted sweeps bypass reuse in both directions: faulted series must
  // never be spliced into another scenario, and splicing a clean baseline
  // series into a faulted run would silently disable the injection under
  // test. Each scenario runs as an independent full (faulted) run and the
  // reuse counters stay zero — exactly the cache-bypass policy of
  // run_edge_analysis.
  if (faults.enabled()) {
    out.baseline = run_edge_analysis(world, config, thresholds, comparison,
                                     goodput, runtime, stats, faults, cache);
    for (const ScenarioPack& pack : packs) {
      SweepScenarioResult scen;
      scen.pack = pack;
      scen.result = run_edge_analysis(world, config, thresholds, comparison,
                                      goodput, runtime, stats, faults, cache,
                                      pack);
      out.scenarios.push_back(std::move(scen));
    }
    return out;
  }

  const std::size_t n = world.groups.size();

  // ---- scenarios: perturbed world, footprint, fleet blobs -----------------
  std::vector<SweepPassWorld> worlds(packs.size());
  std::vector<FaultCounters> applied(packs.size());
  for (std::size_t k = 0; k < packs.size(); ++k) {
    SweepPassWorld& scen = worlds[k];
    scen.world = apply_scenario(world, packs[k], &applied[k]);
    scen.affected = affected_groups(world, packs[k]);
    if (affected_blobs && !scen.affected.empty()) {
      if (affected_blobs(k, packs[k], scen.world, scen.affected, scen.blobs)) {
        FBEDGE_EXPECT(scen.blobs.size() == scen.affected.size(),
                      "sweep blob provider must return one blob per affected group");
      } else {
        scen.blobs.clear();
      }
    }
  }

  // ---- one pass: every baseline group plus every affected group -----------
  // When a warm pass met a bad baseline blob, its results are still exact
  // (that group was cold-ingested in its task), so the cold rerun that
  // rewrites the artifact redoes the baseline alone and keeps the warm
  // pass's scenario results.
  SweepPassResult pass;
  bool scenarios_done = false;
  const std::vector<SweepPassWorld> baseline_only;
  run_cached_pass(
      world, config, goodput, cache, stats,
      [&](const IngestArtifactReader& reader, const EdgeReducer::SaveFn* save) {
        SweepPassResult next = reduce_sweep_pass(
            world, scenarios_done ? baseline_only : worlds, config, thresholds,
            comparison, goodput, reader, runtime, stats, save);
        if (scenarios_done) next.scenarios = std::move(pass.scenarios);
        pass = std::move(next);
        scenarios_done = true;
        return pass.baseline_blob_groups;
      });

  out.baseline = std::move(pass.baseline);
  for (std::size_t k = 0; k < packs.size(); ++k) {
    SweepScenarioResult scen;
    scen.pack = packs[k];
    scen.affected = std::move(worlds[k].affected);
    scen.result = std::move(pass.scenarios[k]);
    // Count the sweep's decisions, exactly recountable from the footprint:
    // every group outside it reused its baseline partial, every group
    // inside was re-analyzed (ingested in-process or by a fleet worker).
    const auto recomputed = static_cast<std::uint64_t>(scen.affected.size());
    const auto reused = static_cast<std::uint64_t>(n) - recomputed;
    scen.result.faults.accumulate(applied[k]);
    scen.result.faults.scenario_groups_reused = reused;
    scen.result.faults.scenario_groups_recomputed = recomputed;
    if (stats) {
      stats->faults.accumulate(applied[k]);
      stats->faults.scenario_groups_reused += reused;
      stats->faults.scenario_groups_recomputed += recomputed;
    }
    out.scenarios.push_back(std::move(scen));
  }
  return out;
}

}  // namespace fbedge
