// Worker fleets over the ingest-artifact cache, and the multi-process
// shard coordinator built on them: 100x scale.
//
// A fleet's work is one FleetJob: an ascending list of group ids plus a
// base key. A scale run takes every group of the world, keyed by its
// ingest_cache_key (scale_fleet_job); a scenario sweep takes one
// scenario's affected groups under the perturbed world (sweep_fleet_job,
// sweep_fleet.h). ShardPlan splits the list into contiguous slices, one
// per worker. Each worker — an OS process by default, an in-process call
// in tests — runs run_fleet_worker: it streams its slice's per-group blobs
// into a shard ingest artifact (bounded memory: one chunk of groups at a
// time, via ingest_groups_to_blobs + IngestArtifactWriter), publishes the
// artifact atomically, and only then writes its shard manifest. Manifests
// record slice indices into the list; for a scale job those equal the
// group ids. run_worker_fleet retries crashed workers up to the fault
// plan's attempt budget.
//
// The coordinator (run_scale_analysis) then reduces shard by shard in
// shard order: open_fleet_shard reads one shard's index, EdgeReducer folds
// its groups with each reduce worker reading and checking its own group's
// blob, the artifact closes, and the next shard opens. Because shards are
// ascending blocks and EdgeReducer folds partials in ascending group
// order, the finished result is byte-identical to a single-process
// run_edge_analysis over the same world — for any worker count, any worker
// thread count, and any reduce thread count.
//
// Failure policy mirrors the ingest cache: a shard whose worker exhausted
// every attempt, or whose manifest or index fails validation, is reduced
// via cold ingest in the coordinator instead, and a blob that fails its
// checksum cold-ingests just its group — slower, never wrong. The loss is
// counted (FaultCounters::degraded_shards, cache_misses), never silent.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/edge_analysis.h"
#include "distrib/subprocess.h"

namespace fbedge {

/// Exit status a worker uses for an injected kWorkerCrash death, distinct
/// from real I/O failure (1) and exec failure (127) so logs stay readable.
/// The coordinator attributes crashes by recomputing worker_crash_decision,
/// not by trusting exit codes.
inline constexpr int kWorkerCrashExit = 43;

/// One fleet's work: the ascending group ids its workers ingest, and the
/// base key their manifests and shard artifacts are keyed by.
struct FleetJob {
  std::vector<std::size_t> groups;
  std::uint64_t base_key{0};
};

/// A scale run's job: every group of `world`, keyed by its
/// ingest_cache_key.
FleetJob scale_fleet_job(const World& world, const DatasetConfig& config,
                         const GoodputConfig& goodput);

/// Identity of one worker attempt: shard `shard` of a `workers`-way
/// partition of a job's group list, attempt number `attempt`.
struct WorkerSpec {
  int shard{0};
  int workers{1};
  int attempt{0};
  std::string cache_dir;
};

/// The worker body (also run directly by the tools' hidden worker modes).
/// `world` is the world the job's groups are ingested from. Checks the
/// injected-crash decision FIRST — before touching the cache directory —
/// so a crashed attempt can never publish a partial artifact or manifest.
/// Otherwise: if a valid manifest + artifact for this shard already exist,
/// returns 0 immediately (idempotent re-spawn); else ingests the shard's
/// slice, streams it into the shard artifact, publishes it, then publishes
/// the manifest. Returns 0 on success, kWorkerCrashExit on injected crash,
/// 1 on I/O failure.
int run_fleet_worker(const World& world, const DatasetConfig& config,
                     GoodputConfig goodput, const FleetJob& job,
                     const WorkerSpec& spec, const FaultPlan& faults = {},
                     const RuntimeOptions& runtime = RuntimeOptions::sequential(),
                     RunStats* stats = nullptr);

/// Fleet knobs, shared by scale runs and scenario sweeps.
struct FleetOptions {
  /// Worker count = shard count. 1 still exercises the full
  /// spawn/manifest/reduce machinery.
  int workers{1};
  /// Threads inside each worker's ingest.
  int worker_threads{1};
  /// Shared artifact + manifest directory. Required.
  std::string cache_dir;
  /// Threads for the reduce (and any cold-ingest fallback).
  RuntimeOptions reduce_runtime = RuntimeOptions::sequential();
  /// Fault plan; worker_crash_rate / worker_max_attempts drive the
  /// spawn-retry loop. Data-fault rates must stay zero (the shared cache
  /// must never hold faulted series).
  FaultPlan faults;
  /// Launches one worker attempt for shard `shard` of `job` and blocks
  /// until it exits (the tools wire this to spawn_worker on their own
  /// binary in worker mode). Null = run the worker in-process, which tests
  /// use to exercise fleet logic without a binary path.
  std::function<WorkerExit(const FleetJob& job, int shard, int attempt)>
      launcher;
};

/// The spawn phase: runs one retry loop per shard of `job` in parallel
/// (one slot per shard; a slot blocks while its worker attempt runs), each
/// retrying up to the fault plan's worker_max_attempts. Each attempt goes
/// through options.launcher, or run_fleet_worker over `world` in-process;
/// status 0 marks the shard published. Injected crashes are attributed by
/// recomputing worker_crash_decision — never by trusting an exit code a
/// real bug could collide with. The per-shard tallies (spawned, failures,
/// crashes, retries, degraded shards, worker peak RSS) fold in shard order
/// into `stats` and `faults`, so they are independent of completion order,
/// and the phase's wall time adds to stats->wall_seconds. Returns whether
/// each shard published.
std::vector<bool> run_worker_fleet(const World& world,
                                   const DatasetConfig& config,
                                   GoodputConfig goodput, const FleetJob& job,
                                   const FleetOptions& options,
                                   RunStats* stats,
                                   FaultCounters* faults = nullptr);

/// Opens the index of shard `shard`'s artifact into `reader` when a
/// manifest vouching for exactly that slice of `job` is published in
/// options.cache_dir. No blob is read here: each read() checks its own
/// blob. Returns false, leaving `reader` closed, otherwise. The open's
/// time goes to stats->cache_load_seconds.
bool open_fleet_shard(const FleetJob& job, int shard,
                      const FleetOptions& options, IngestArtifactReader& reader,
                      RunStats* stats);

/// Runs the partition/spawn/retry/reduce sequence described above and
/// returns the finished analysis. Spawn-phase counters fold into `stats`
/// and the result's FaultCounters.
EdgeAnalysisResult run_scale_analysis(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds = {},
    const ComparisonConfig& comparison = {}, GoodputConfig goodput = {},
    const FleetOptions& options = {}, RunStats* stats = nullptr);

}  // namespace fbedge
