#include "distrib/sweep_fleet.h"

#include <algorithm>
#include <chrono>

#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "distrib/shard_manifest.h"
#include "util/binio.h"
#include "util/expect.h"

namespace fbedge {
namespace {

// Domain-separates sweep shard artifacts from plain scale shards sharing a
// cache dir (both ultimately key off ingest_cache_key).
constexpr std::uint64_t kSweepKeySalt = 0x5357454550464c54ULL;  // "SWEEPFLT"

ShardManifest sweep_manifest(std::uint64_t base_key, int shard, int workers,
                             const ShardRange& slice) {
  ShardManifest m;
  m.base_key = base_key;
  m.shard_index = static_cast<std::uint32_t>(shard);
  m.worker_count = static_cast<std::uint32_t>(workers);
  // Slice indices into the affected list, not global group ids: the list
  // is a pure function of (world, pack), so indices identify the work just
  // as precisely and keep the manifest format unchanged.
  m.group_begin = slice.begin;
  m.group_end = slice.end;
  m.artifact_key = shard_artifact_key(base_key, slice.begin, slice.end);
  return m;
}

bool sweep_shard_published(const std::string& path, const ShardManifest& want) {
  ShardManifest got;
  return read_shard_manifest(path, got) && got == want;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::uint64_t sweep_base_key(const World& perturbed, const DatasetConfig& config,
                             const GoodputConfig& goodput,
                             const ScenarioPack& pack) {
  Fnv64 h;
  h.u64(kSweepKeySalt);
  h.u64(ingest_cache_key(perturbed, config, goodput));
  h.u64(scenario_pack_hash(pack));
  return h.value();
}

int run_sweep_worker(const World& world, const DatasetConfig& config,
                     GoodputConfig goodput, const ScenarioPack& pack,
                     const SweepWorkerSpec& spec, const FaultPlan& faults,
                     const RuntimeOptions& runtime, RunStats* stats) {
  FBEDGE_EXPECT(spec.workers >= 1 && spec.shard >= 0 &&
                    spec.shard < spec.workers,
                "sweep worker spec shard out of range");
  FBEDGE_EXPECT(!spec.cache_dir.empty(), "sweep worker needs a cache dir");

  // Injected crash fires before any disk access (same protocol as
  // run_shard_worker): a crashed attempt can never publish anything.
  if (worker_crash_decision(faults, spec.shard, spec.attempt)) {
    return kWorkerCrashExit;
  }

  const World perturbed = apply_scenario(world, pack);
  const std::vector<std::size_t> affected = affected_groups(world, pack);
  const std::uint64_t base_key = sweep_base_key(perturbed, config, goodput, pack);
  const ShardPlan plan =
      ShardPlan::make(affected.size(), spec.workers);
  const ShardRange slice = plan.shard(spec.shard);
  const ShardManifest want =
      sweep_manifest(base_key, spec.shard, spec.workers, slice);
  const std::string manifest_path =
      shard_manifest_path(spec.cache_dir, base_key, spec.shard, spec.workers);
  const std::string artifact_path =
      ingest_artifact_path(spec.cache_dir, want.artifact_key);

  // Idempotent re-spawn: a previous attempt already published this slice.
  if (sweep_shard_published(manifest_path, want)) {
    IngestArtifactReader probe;
    if (probe.open(artifact_path, want.artifact_key, slice.size())) {
      return 0;
    }
    // Manifest without a readable artifact: rebuild both.
  }

  const std::vector<std::size_t> slice_groups(
      affected.begin() + static_cast<std::ptrdiff_t>(slice.begin),
      affected.begin() + static_cast<std::ptrdiff_t>(slice.end));
  IngestArtifactWriter writer;
  if (!writer.open(artifact_path, want.artifact_key, slice.size())) return 1;
  bool append_ok = true;
  ingest_groups_to_blobs(
      perturbed, config, goodput, slice_groups, runtime,
      [&](std::size_t /*group*/, std::string&& blob) {
        if (!writer.append(blob)) append_ok = false;
      },
      stats);
  if (!append_ok || !writer.finish()) return 1;
  // Artifact is live; the manifest is published last so its existence
  // implies a complete artifact.
  if (!write_shard_manifest(manifest_path, want)) return 1;
  return 0;
}

SweepOutcome run_sweep_analysis(const World& world, const DatasetConfig& config,
                                const AnalysisThresholds& thresholds,
                                const ComparisonConfig& comparison,
                                GoodputConfig goodput,
                                const std::vector<ScenarioPack>& packs,
                                const SweepFleetOptions& options,
                                RunStats* stats) {
  FBEDGE_EXPECT(options.workers >= 1, "sweep fleet needs at least one worker");
  FBEDGE_EXPECT(!options.cache_dir.empty(), "sweep fleet needs a cache dir");
  FBEDGE_EXPECT(!options.faults.sampler_faults() && !options.faults.agg_faults() &&
                    !options.faults.stream_faults() &&
                    !options.faults.runtime_faults(),
                "sweep fleets must not inject data faults (shared cache)");

  // The crash plan drives only the fleet retry loop; run_scenario_sweep
  // gets a clean plan so worker crashes never degrade the sweep to
  // independent full runs — the fleet's own retry/degrade handles them.
  const SweepAffectedBlobFn affected_blobs =
      [&](std::size_t scenario, const ScenarioPack& pack, const World& perturbed,
          const std::vector<std::size_t>& affected,
          std::vector<std::string>& blobs) {
        if (affected.empty()) return false;
        const std::uint64_t base_key =
            sweep_base_key(perturbed, config, goodput, pack);
        const ShardPlan plan = ShardPlan::make(affected.size(), options.workers);

        const auto launch = [&](int shard, int attempt) {
          if (options.launcher) {
            return options.launcher(static_cast<int>(scenario), shard, attempt);
          }
          SweepWorkerSpec spec;
          spec.shard = shard;
          spec.workers = options.workers;
          spec.attempt = attempt;
          spec.cache_dir = options.cache_dir;
          WorkerExit exit;
          exit.spawned = true;
          exit.status =
              run_sweep_worker(world, config, goodput, pack, spec,
                               options.faults,
                               RuntimeOptions{options.worker_threads});
          return exit;
        };
        const auto outcomes =
            run_worker_fleet(plan.shard_count(), options.faults, launch);

        // Collect slice artifacts in shard order. A shard that never
        // published — or whose artifact or blobs fail validation — leaves
        // those blobs empty; their groups cold-ingest in-process.
        blobs.assign(affected.size(), std::string());
        for (int s = 0; s < plan.shard_count(); ++s) {
          const ShardRange& slice = plan.shard(s);
          if (slice.empty()) continue;
          const ShardManifest want =
              sweep_manifest(base_key, s, options.workers, slice);
          const auto load_start = std::chrono::steady_clock::now();
          IngestArtifactReader reader;
          const bool warm =
              outcomes[static_cast<std::size_t>(s)].published &&
              sweep_shard_published(
                  shard_manifest_path(options.cache_dir, base_key, s,
                                      options.workers),
                  want) &&
              reader.open(
                  ingest_artifact_path(options.cache_dir, want.artifact_key),
                  want.artifact_key, slice.size());
          if (warm) {
            // A failed read leaves that blob empty -> cold ingest.
            for (std::size_t i = slice.begin; i < slice.end; ++i) {
              reader.read(i - slice.begin, blobs[i]);
            }
          }
          if (stats) {
            stats->cache_load_seconds += seconds_since(load_start);
            stats->cache_read_bytes += reader.bytes_read();
          }
        }

        if (stats) {
          for (const FleetShardOutcome& out : outcomes) {
            stats->workers_spawned += out.spawned;
            stats->worker_failures += out.failures;
            stats->faults.worker_crashes += out.crashes;
            stats->faults.worker_retries += out.retries;
            if (!out.published) ++stats->faults.degraded_shards;
            stats->worker_rss_peak_bytes =
                std::max(stats->worker_rss_peak_bytes, out.rss_peak);
          }
        }
        return true;
      };

  IngestCacheOptions cache;
  cache.dir = options.cache_dir;
  return run_scenario_sweep(world, config, thresholds, comparison, goodput,
                            packs, options.reduce_runtime, stats, FaultPlan{},
                            cache, affected_blobs);
}

}  // namespace fbedge
