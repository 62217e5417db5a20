// One-pass sweep runner: the baseline and every scenario's affected groups
// in one reduce_sweep_pass, each scenario reusing the baseline partials of
// the groups it does not touch.
#include "analysis/sweep.h"

#include <chrono>
#include <utility>

#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "util/expect.h"

namespace fbedge {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

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

  // ---- baseline artifact: open and validate; blobs are read in the pass ---
  std::uint64_t cache_key = 0;
  std::string artifact_path;
  IngestArtifactReader artifact;
  bool warm = false;
  if (cache.enabled()) {
    cache_key = ingest_cache_key(world, config, goodput);
    artifact_path = ingest_artifact_path(cache.dir, cache_key);
    const auto t0 = std::chrono::steady_clock::now();
    warm = artifact.open(artifact_path, cache_key, n);
    if (stats) stats->cache_load_seconds += seconds_since(t0);
  }

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
  std::vector<std::string> blobs;
  EdgeReducer::SaveFn save_fn;
  if (cache.enabled() && !warm) {
    blobs.resize(n);
    save_fn = [&blobs](std::size_t g, std::string&& blob) {
      blobs[g] = std::move(blob);
    };
  }
  SweepPassResult pass =
      reduce_sweep_pass(world, worlds, config, thresholds, comparison, goodput,
                        artifact, runtime, stats, save_fn ? &save_fn : nullptr);
  if (cache.enabled() && stats) {
    stats->cache_hits += pass.baseline_blob_groups;
    stats->cache_misses +=
        static_cast<std::uint64_t>(n) - pass.baseline_blob_groups;
  }
  if (cache.enabled() && !warm) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool written = write_ingest_artifact(artifact_path, cache_key, blobs);
    if (stats) {
      stats->cache_save_seconds += seconds_since(t0);
      if (!written) ++stats->cache_write_failures;
    }
  }

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
