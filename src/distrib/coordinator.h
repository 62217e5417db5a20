// Multi-process shard coordinator: 100x scale over the ingest-artifact
// cache.
//
// The group space is partitioned into ShardPlan's contiguous ascending
// blocks, one per worker. Each worker — an OS process by default, an
// in-process call in tests — ingests its block, streams the per-group
// blobs into a shard ingest artifact (bounded memory: one chunk of groups
// at a time, via ingest_range_to_blobs + IngestArtifactWriter), publishes
// the artifact atomically, and only then writes its shard manifest. The
// coordinator retries crashed workers up to the fault plan's attempt
// budget, then reduces shard by shard in shard order: open (validate) one
// shard's artifact, fold its groups through EdgeReducer with each reduce
// worker reading its own group's blob, close the artifact, move on.
// Because shards are ascending blocks and EdgeReducer folds partials
// in ascending group order, the finished result is byte-identical to a
// single-process run_edge_analysis over the same world — for any worker
// count, any worker thread count, and any reduce thread count.
//
// Failure policy mirrors the ingest cache: a shard whose worker exhausted
// every attempt (or whose manifest/artifact fails validation) is reduced
// via cold ingest in the coordinator instead — slower, never wrong. The
// loss is counted (FaultCounters::degraded_shards), never silent.
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

/// Identity of one worker attempt: shard `shard` of a `workers`-way
/// partition of the world's groups, attempt number `attempt`.
struct WorkerSpec {
  int shard{0};
  int workers{1};
  int attempt{0};
  std::string cache_dir;
};

/// The worker body (also run directly by fbedge_scale's hidden worker
/// mode). Checks the injected-crash decision FIRST — before touching the
/// cache directory — so a crashed attempt can never publish a partial
/// artifact or manifest. Otherwise: if a valid manifest + artifact for
/// this shard already exist, returns 0 immediately (idempotent re-spawn);
/// else ingests the shard's group range, streams it into the shard
/// artifact, publishes it, then publishes the manifest. Returns 0 on
/// success, kWorkerCrashExit on injected crash, 1 on I/O failure.
int run_shard_worker(const World& world, const DatasetConfig& config,
                     GoodputConfig goodput, const WorkerSpec& spec,
                     const FaultPlan& faults = {},
                     const RuntimeOptions& runtime = RuntimeOptions::sequential(),
                     RunStats* stats = nullptr);

/// Outcome of one shard's spawn-retry loop (run_worker_fleet).
struct FleetShardOutcome {
  bool published{false};
  std::uint64_t spawned{0};
  std::uint64_t failures{0};
  std::uint64_t crashes{0};
  std::uint64_t retries{0};
  std::uint64_t rss_peak{0};
};

/// The shared spawn phase: runs `shards` independent retry loops in
/// parallel (one slot per shard; a slot blocks while its worker attempt
/// runs), each retrying up to the fault plan's worker_max_attempts.
/// `launch(shard, attempt)` runs one attempt and blocks until it exits;
/// status 0 marks the shard published. Injected crashes are attributed by
/// recomputing worker_crash_decision — never by trusting an exit code a
/// real bug could collide with. Outcomes come back in shard order, so
/// folding them is independent of completion order. Both the scale
/// coordinator and the scenario-sweep fleet (sweep_fleet.h) run their
/// workers through this loop.
std::vector<FleetShardOutcome> run_worker_fleet(
    int shards, const FaultPlan& faults,
    const std::function<WorkerExit(int shard, int attempt)>& launch);

/// Coordinator knobs.
struct ScaleOptions {
  /// Worker count = shard count. 1 still exercises the full
  /// spawn/manifest/reduce machinery.
  int workers{1};
  /// Threads inside each worker's ingest.
  int worker_threads{1};
  /// Shared artifact + manifest directory. Required.
  std::string cache_dir;
  /// Threads for the coordinator's reduce (and any cold-ingest fallback).
  RuntimeOptions reduce_runtime = RuntimeOptions::sequential();
  /// Fault plan; worker_crash_rate / worker_max_attempts drive the
  /// spawn-retry loop. Sampler/agg rates must stay zero (the shared cache
  /// must never hold faulted series; fbedge_scale enforces this at the CLI).
  FaultPlan faults;
  /// Launches one worker attempt and blocks until it exits (the tool wires
  /// this to spawn_worker on its own binary in worker mode). Null = run the
  /// worker in-process, which tests use to exercise coordinator logic
  /// without a binary path.
  std::function<WorkerExit(int shard, int attempt)> launcher;
};

/// Runs the partition/spawn/retry/reduce sequence described above and
/// returns the finished analysis. Worker attempts are launched in
/// parallel (one slot per worker); all spawn-phase counters — crashes,
/// retries, degraded shards, processes spawned, per-worker peak RSS — are
/// folded in shard order into `stats` and the result's FaultCounters.
EdgeAnalysisResult run_scale_analysis(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds = {},
    const ComparisonConfig& comparison = {}, GoodputConfig goodput = {},
    const ScaleOptions& options = {}, RunStats* stats = nullptr);

}  // namespace fbedge
