// Splice-reduce sweep runner: baseline once, per scenario only the
// affected groups, spliced through EdgeReducer in group-id order.
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

  // ---- baseline: one ingest, blobs retained for splicing -------------------
  // With a cache dir this is exactly run_edge_analysis's warm/cold logic;
  // without one the blobs only live in memory for the sweep's duration.
  std::uint64_t cache_key = 0;
  std::string artifact_path;
  IngestArtifact artifact;
  bool warm = false;
  if (cache.enabled()) {
    cache_key = ingest_cache_key(world, config, goodput);
    artifact_path = ingest_artifact_path(cache.dir, cache_key);
    const auto t0 = std::chrono::steady_clock::now();
    warm = read_ingest_artifact(artifact_path, cache_key, n, artifact);
    if (stats) stats->cache_load_seconds += seconds_since(t0);
  }
  std::vector<std::string> blobs;
  {
    EdgeReducer reducer(world, config, thresholds, comparison, goodput);
    EdgeReducer::BlobFn blob_fn;
    if (warm) {
      blob_fn = [&artifact](std::size_t g) {
        const auto [offset, length] = artifact.blobs[g];
        return GroupBlobRef{artifact.bytes.data() + offset, length};
      };
    }
    EdgeReducer::SaveFn save_fn;
    if (!warm) {
      blobs.resize(n);
      save_fn = [&blobs](std::size_t g, std::string&& blob) {
        blobs[g] = std::move(blob);
      };
    }
    reducer.reduce_range(ShardRange{0, n}, blob_fn, runtime, stats,
                         save_fn ? &save_fn : nullptr);
    if (cache.enabled() && stats) {
      const std::uint64_t hits = reducer.blob_groups();
      stats->cache_hits += hits;
      stats->cache_misses += static_cast<std::uint64_t>(n) - hits;
    }
    if (cache.enabled() && !warm) {
      const auto t0 = std::chrono::steady_clock::now();
      const bool written = write_ingest_artifact(artifact_path, cache_key, blobs);
      if (stats) {
        stats->cache_save_seconds += seconds_since(t0);
        if (!written) ++stats->cache_write_failures;
      }
    }
    out.baseline = reducer.finish();
  }
  // Baseline blob for one group, wherever the baseline came from. A blob
  // that fails structural validation downstream simply cold-ingests —
  // for an unaffected group the perturbed profile is bitwise-equal to
  // baseline, so the fallback is byte-identical too.
  const auto baseline_blob = [&](std::size_t g) -> GroupBlobRef {
    if (warm) {
      const auto [offset, length] = artifact.blobs[g];
      return GroupBlobRef{artifact.bytes.data() + offset, length};
    }
    return GroupBlobRef{blobs[g].data(), blobs[g].size()};
  };

  // ---- per scenario: splice baseline, re-ingest only the footprint ---------
  std::vector<std::size_t> affected_index(n);
  for (std::size_t k = 0; k < packs.size(); ++k) {
    const ScenarioPack& pack = packs[k];
    SweepScenarioResult scen;
    scen.pack = pack;
    FaultCounters applied;
    const World perturbed = apply_scenario(world, pack, &applied);
    scen.affected = affected_groups(world, pack);

    std::vector<std::string> scen_blobs;
    bool have_scen_blobs = false;
    if (affected_blobs && !scen.affected.empty()) {
      have_scen_blobs =
          affected_blobs(k, pack, perturbed, scen.affected, scen_blobs);
      FBEDGE_EXPECT(!have_scen_blobs || scen_blobs.size() == scen.affected.size(),
                    "sweep blob provider must return one blob per affected group");
    }

    affected_index.assign(n, static_cast<std::size_t>(-1));
    for (std::size_t i = 0; i < scen.affected.size(); ++i) {
      FBEDGE_EXPECT(scen.affected[i] < n, "affected group id out of range");
      affected_index[scen.affected[i]] = i;
    }

    EdgeReducer reducer(perturbed, config, thresholds, comparison, goodput);
    const EdgeReducer::BlobFn blob_fn = [&](std::size_t g) -> GroupBlobRef {
      const std::size_t ai = affected_index[g];
      if (ai == static_cast<std::size_t>(-1)) return baseline_blob(g);
      if (have_scen_blobs) {
        return GroupBlobRef{scen_blobs[ai].data(), scen_blobs[ai].size()};
      }
      return GroupBlobRef{};  // cold-ingest under the perturbed world
    };
    reducer.reduce_range(ShardRange{0, n}, blob_fn, runtime, stats, nullptr);
    scen.result = reducer.finish();

    // Count the sweep's decisions, exactly recountable from the footprint:
    // every group outside it was spliced, every group inside re-ingested
    // (in-process or by a fleet worker).
    const auto recomputed = static_cast<std::uint64_t>(scen.affected.size());
    const auto reused = static_cast<std::uint64_t>(n) - recomputed;
    scen.result.faults.accumulate(applied);
    scen.result.faults.scenario_groups_reused = reused;
    scen.result.faults.scenario_groups_recomputed = recomputed;
    if (stats) {
      stats->faults.accumulate(applied);
      stats->faults.scenario_groups_reused += reused;
      stats->faults.scenario_groups_recomputed += recomputed;
    }
    out.scenarios.push_back(std::move(scen));
  }
  return out;
}

}  // namespace fbedge
