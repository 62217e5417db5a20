#include "distrib/sweep_fleet.h"

#include "analysis/ingest_cache.h"
#include "util/binio.h"
#include "util/expect.h"

namespace fbedge {
namespace {

// Domain-separates sweep shard artifacts from plain scale shards sharing a
// cache dir (both ultimately key off ingest_cache_key).
constexpr std::uint64_t kSweepKeySalt = 0x5357454550464c54ULL;  // "SWEEPFLT"

}  // namespace

FleetJob sweep_fleet_job(const World& world, const World& perturbed,
                         const DatasetConfig& config,
                         const GoodputConfig& goodput, const ScenarioPack& pack) {
  Fnv64 h;
  h.u64(kSweepKeySalt);
  h.u64(ingest_cache_key(perturbed, config, goodput));
  h.u64(scenario_pack_hash(pack));
  FleetJob job;
  job.groups = affected_groups(world, pack);
  job.base_key = h.value();
  return job;
}

SweepOutcome run_sweep_analysis(const World& world, const DatasetConfig& config,
                                const AnalysisThresholds& thresholds,
                                const ComparisonConfig& comparison,
                                GoodputConfig goodput,
                                const std::vector<ScenarioPack>& packs,
                                const FleetOptions& options, RunStats* stats) {
  FBEDGE_EXPECT(!options.faults.sampler_faults() && !options.faults.agg_faults() &&
                    !options.faults.stream_faults() &&
                    !options.faults.runtime_faults(),
                "sweep fleets must not inject data faults (shared cache)");

  // The crash plan drives only the fleet retry loop; run_scenario_sweep
  // gets a clean plan so worker crashes never degrade the sweep to
  // independent full runs — the fleet's own retry/degrade handles them.
  const SweepAffectedBlobFn affected_blobs =
      [&](std::size_t /*scenario*/, const ScenarioPack& pack,
          const World& perturbed, const std::vector<std::size_t>& affected,
          std::vector<std::string>& blobs) {
        const FleetJob job =
            sweep_fleet_job(world, perturbed, config, goodput, pack);
        const std::vector<bool> published =
            run_worker_fleet(perturbed, config, goodput, job, options, stats);

        // Collect slice blobs in shard order. A shard that never published
        // — or whose manifest or index fails validation — leaves its blobs
        // empty, and so does a read that fails its checksum; those groups
        // cold-ingest in-process.
        blobs.assign(affected.size(), std::string());
        const ShardPlan plan = ShardPlan::make(affected.size(), options.workers);
        for (int s = 0; s < plan.shard_count(); ++s) {
          const ShardRange& slice = plan.shard(s);
          IngestArtifactReader reader;
          if (slice.empty() || !published[static_cast<std::size_t>(s)] ||
              !open_fleet_shard(job, s, options, reader, stats)) {
            continue;
          }
          for (std::size_t i = slice.begin; i < slice.end; ++i) {
            reader.read(i - slice.begin, blobs[i]);
          }
          if (stats) stats->cache_read_bytes += reader.bytes_read();
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
