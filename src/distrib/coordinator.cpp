#include "distrib/coordinator.h"

#include <algorithm>
#include <chrono>

#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "distrib/shard_manifest.h"
#include "runtime/pipeline.h"
#include "util/expect.h"

namespace fbedge {
namespace {

/// The manifest a published shard of `job` must carry. The group range is
/// the slice's indices into job.groups: the list is a pure function of the
/// job's inputs, so indices identify the work just as precisely.
ShardManifest fleet_manifest(const FleetJob& job, int shard, int workers,
                             const ShardRange& slice) {
  ShardManifest m;
  m.base_key = job.base_key;
  m.shard_index = static_cast<std::uint32_t>(shard);
  m.worker_count = static_cast<std::uint32_t>(workers);
  m.group_begin = slice.begin;
  m.group_end = slice.end;
  m.artifact_key = shard_artifact_key(job.base_key, slice.begin, slice.end);
  return m;
}

std::string manifest_path(const std::string& dir, const ShardManifest& m) {
  return shard_manifest_path(dir, m.base_key, static_cast<int>(m.shard_index),
                             static_cast<int>(m.worker_count));
}

/// True when a valid manifest vouching for exactly `want` exists in `dir`.
bool shard_published(const std::string& dir, const ShardManifest& want) {
  ShardManifest got;
  return read_shard_manifest(manifest_path(dir, want), got) && got == want;
}

}  // namespace

FleetJob scale_fleet_job(const World& world, const DatasetConfig& config,
                         const GoodputConfig& goodput) {
  FleetJob job;
  job.groups.resize(world.groups.size());
  for (std::size_t g = 0; g < job.groups.size(); ++g) job.groups[g] = g;
  job.base_key = ingest_cache_key(world, config, goodput);
  return job;
}

int run_fleet_worker(const World& world, const DatasetConfig& config,
                     GoodputConfig goodput, const FleetJob& job,
                     const WorkerSpec& spec, const FaultPlan& faults,
                     const RuntimeOptions& runtime, RunStats* stats) {
  FBEDGE_EXPECT(spec.workers >= 1 && spec.shard >= 0 &&
                    spec.shard < spec.workers,
                "worker spec shard out of range");
  FBEDGE_EXPECT(!spec.cache_dir.empty(), "worker needs a cache dir");

  // Injected crash fires before any disk access, so a crashed attempt is
  // indistinguishable from a process that died on arrival: no partial
  // artifact, no manifest, nothing for a reader to trip over.
  if (worker_crash_decision(faults, spec.shard, spec.attempt)) {
    return kWorkerCrashExit;
  }

  const ShardRange slice =
      ShardPlan::make(job.groups.size(), spec.workers).shard(spec.shard);
  const ShardManifest want =
      fleet_manifest(job, spec.shard, spec.workers, slice);
  const std::string artifact_path =
      ingest_artifact_path(spec.cache_dir, want.artifact_key);

  // Idempotence: a previous attempt (or a concurrent coordinator over the
  // same cache dir) already published this shard. The reader's open()
  // checks every blob's checksum with one blob in memory at a time — the
  // worker never materializes the artifact it is vouching for.
  if (shard_published(spec.cache_dir, want)) {
    IngestArtifactReader probe;
    if (probe.open(artifact_path, want.artifact_key, slice.size())) {
      return 0;
    }
    // Manifest without a readable artifact: fall through and rebuild both.
  }

  const std::vector<std::size_t> groups(
      job.groups.begin() + static_cast<std::ptrdiff_t>(slice.begin),
      job.groups.begin() + static_cast<std::ptrdiff_t>(slice.end));
  // Each blob goes to the writer from the pool worker that ingested it;
  // its slice position is its artifact index.
  IngestArtifactWriter writer;
  if (!writer.open(artifact_path, want.artifact_key, slice.size())) return 1;
  ingest_groups_to_blobs(
      world, config, goodput, groups, runtime,
      [&writer](std::size_t i, std::string_view blob) { writer.put(i, blob); },
      stats);
  if (!writer.finish()) return 1;
  // Artifact is live; the manifest is published last so its existence
  // implies a complete artifact.
  return write_shard_manifest(manifest_path(spec.cache_dir, want), want) ? 0 : 1;
}

std::vector<bool> run_worker_fleet(const World& world,
                                   const DatasetConfig& config,
                                   GoodputConfig goodput, const FleetJob& job,
                                   const FleetOptions& options,
                                   RunStats* stats, FaultCounters* faults) {
  FBEDGE_EXPECT(options.workers >= 1, "fleet needs at least one worker");
  FBEDGE_EXPECT(!options.cache_dir.empty(), "fleet needs a cache dir");
  // Attempts stop at the first success, so a shard's failures are its
  // attempts minus its success, and its retries its attempts minus one.
  struct ShardOutcome {
    bool published{false};
    std::uint64_t spawned{0};
    std::uint64_t crashes{0};
    std::uint64_t rss_peak{0};
  };
  const int max_attempts = std::max(1, options.faults.worker_max_attempts);
  const RuntimeOptions worker_runtime{options.worker_threads};
  RunStats spawn;  // its wall: no pool pass of the run covers this phase
  const auto outcomes = parallel_map(
      static_cast<std::size_t>(options.workers),
      RuntimeOptions{options.workers}, [&](std::size_t s) {
        ShardOutcome out;
        const int shard = static_cast<int>(s);
        for (int attempt = 0; attempt < max_attempts && !out.published;
             ++attempt) {
          ++out.spawned;
          WorkerExit exit;
          if (options.launcher) {
            exit = options.launcher(job, shard, attempt);
          } else {
            WorkerSpec spec;
            spec.shard = shard;
            spec.workers = options.workers;
            spec.attempt = attempt;
            spec.cache_dir = options.cache_dir;
            exit.spawned = true;
            exit.status = run_fleet_worker(world, config, goodput, job, spec,
                                           options.faults, worker_runtime);
          }
          out.rss_peak = std::max(out.rss_peak, exit.max_rss_bytes);
          out.published = exit.status == 0;
          // Attribute the failure to the injected site by recomputing the
          // decision (never by trusting an exit code a real bug could
          // collide with).
          if (!out.published &&
              worker_crash_decision(options.faults, shard, attempt)) {
            ++out.crashes;
          }
        }
        return out;
      },
      &spawn);

  FaultCounters fleet_faults;
  std::vector<bool> published;
  for (const ShardOutcome& out : outcomes) {
    published.push_back(out.published);
    fleet_faults.worker_crashes += out.crashes;
    fleet_faults.worker_retries += out.spawned - 1;
    if (!out.published) ++fleet_faults.degraded_shards;
    if (stats) {
      stats->workers_spawned += out.spawned;
      stats->worker_failures += out.spawned - (out.published ? 1 : 0);
      stats->worker_rss_peak_bytes =
          std::max(stats->worker_rss_peak_bytes, out.rss_peak);
    }
  }
  if (stats) stats->wall_seconds += spawn.wall_seconds;
  if (stats) stats->faults.accumulate(fleet_faults);
  if (faults) faults->accumulate(fleet_faults);
  return published;
}

bool open_fleet_shard(const FleetJob& job, int shard,
                      const FleetOptions& options, IngestArtifactReader& reader,
                      RunStats* stats) {
  const ShardRange slice =
      ShardPlan::make(job.groups.size(), options.workers).shard(shard);
  const ShardManifest want =
      fleet_manifest(job, shard, options.workers, slice);
  const auto start = std::chrono::steady_clock::now();
  const bool open =
      shard_published(options.cache_dir, want) &&
      reader.open_index(ingest_artifact_path(options.cache_dir,
                                             want.artifact_key),
                        want.artifact_key, slice.size());
  if (stats) {
    stats->cache_load_seconds += std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start)
                                     .count();
  }
  return open;
}

EdgeAnalysisResult run_scale_analysis(const World& world,
                                      const DatasetConfig& config,
                                      const AnalysisThresholds& thresholds,
                                      const ComparisonConfig& comparison,
                                      GoodputConfig goodput,
                                      const FleetOptions& options,
                                      RunStats* stats) {
  FBEDGE_EXPECT(!options.faults.sampler_faults() && !options.faults.agg_faults(),
                "scale runs must not inject data faults (shared cache)");

  const FleetJob job = scale_fleet_job(world, config, goodput);
  FaultCounters worker_faults;
  run_worker_fleet(world, config, goodput, job, options, stats, &worker_faults);

  // ---- Reduce phase: shard by shard in shard order (= ascending group
  // order, since a scale job's slices are contiguous ascending blocks of
  // group ids). Each shard's index is validated at open; then every reduce
  // worker streams and checks its own group's blob inside its pool task, so
  // each blob is read once and the coordinator holds one 64 KiB chunk per
  // worker — never a whole blob, let alone a shard, which at scale is
  // gigabytes. A shard without a
  // valid manifest + index — degraded, raced, or vandalized — leaves the
  // reader closed, and EdgeReducer cold-ingests its groups; a blob that
  // fails its checksum cold-ingests its group alone. Output is
  // byte-identical either way, and cache_misses stay honest.
  EdgeReducer reducer(world, config, thresholds, comparison, goodput,
                      options.faults);
  const ShardPlan plan = ShardPlan::make(job.groups.size(), options.workers);
  for (int s = 0; s < plan.shard_count(); ++s) {
    const ShardRange& range = plan.shard(s);
    if (range.empty()) continue;
    IngestArtifactReader reader;
    open_fleet_shard(job, s, options, reader, stats);
    reducer.reduce_range(range, reader, options.reduce_runtime, stats);
    if (stats) stats->cache_read_bytes += reader.bytes_read();
  }

  if (stats) {
    stats->cache_hits += reducer.blob_groups();
    stats->cache_misses += world.groups.size() - reducer.blob_groups();
  }
  EdgeAnalysisResult result = reducer.finish();
  result.faults.accumulate(worker_faults);
  return result;
}

}  // namespace fbedge
