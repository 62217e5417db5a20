// Artifact-driven reduce: the analysis half of run_edge_analysis as a
// standalone, resumable fold.
//
// run_edge_analysis couples three things: ingesting every group's sessions,
// (de)serializing per-group series through the ingest-artifact cache, and
// folding per-group analysis partials into the final figures/tables. The
// multi-process shard coordinator (src/distrib/) needs those pieces
// separately — workers run ingest for a group range and persist blobs, the
// coordinator loads blobs shard by shard and folds. EdgeReducer is that
// fold: feed it contiguous, ascending group ranges (each with a
// blob-provider), then finish(). Because every partial is merged in
// group-id order regardless of how the ranges were produced — one process
// or many, any thread count per range — the finished result is
// byte-identical to a single-process run_edge_analysis over the same
// world. run_edge_analysis itself is rebuilt on top of this class (one
// reduce_range over [0, n)), so the two paths cannot drift.
//
// reduce_sweep_pass is the same fold for a scenario sweep: one pool pass
// over the baseline world and K perturbed copies of it, then K+1 folds.
// Its tasks run the same per-group body as EdgeReducer's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/edge_analysis.h"
#include "runtime/shard_plan.h"

namespace fbedge {

/// Borrowed view of one group's serialized GroupSeries (agg/series_io.h
/// format, exactly one group's blob — not a whole artifact file). An empty
/// ref means "no blob; cold-ingest this group".
struct GroupBlobRef {
  const char* data{nullptr};
  std::size_t size{0};

  bool empty() const { return data == nullptr || size == 0; }
};

/// Incremental group-id-order fold of per-group analysis partials.
///
/// Contract: reduce_range() calls must cover disjoint ranges in ascending
/// order (the coordinator's shards are contiguous ascending blocks, so
/// iterating shards in shard order satisfies this). Within a range the
/// reducer parallelizes the per-group work across `runtime.threads` and
/// folds partials in ascending group order, so the merge sequence seen by
/// the accumulator — and therefore every bit of finish()'s result — is
/// independent of both the range partitioning and the thread count.
class EdgeReducer {
 public:
  /// `faults` drives the sampler/aggregation injection sites of any
  /// cold-ingest fallback (zeroed plan = fault-free path, byte-identical
  /// to a build without faultsim). Runtime-layer faults (task aborts) are
  /// not handled here — run_edge_analysis keeps its failable path.
  EdgeReducer(const World& world, const DatasetConfig& config,
              const AnalysisThresholds& thresholds,
              const ComparisonConfig& comparison, GoodputConfig goodput,
              const FaultPlan& faults = {});
  ~EdgeReducer();

  EdgeReducer(const EdgeReducer&) = delete;
  EdgeReducer& operator=(const EdgeReducer&) = delete;

  /// Returns the blob for a group, or an empty ref to force cold ingest.
  /// Called from pool workers; must be pure per group.
  using BlobFn = std::function<GroupBlobRef(std::size_t group)>;
  /// Receives the serialized series of a cold-ingested group. Called from
  /// pool workers, exactly once per group; distinct groups may be saved
  /// concurrently, so the sink must tolerate that (indexing a per-group
  /// slot suffices).
  using SaveFn = std::function<void(std::size_t group, std::string&& blob)>;

  /// Analyzes groups [range.begin, range.end) and folds their partials
  /// into the running total. Groups whose blob is empty or fails
  /// structural validation are cold-ingested (identical output either
  /// way — serialization round-trips bitwise). `save`, when non-null, is
  /// invoked for every cold-ingested group.
  void reduce_range(const ShardRange& range, const BlobFn& blob,
                    const RuntimeOptions& runtime, RunStats* stats = nullptr,
                    const SaveFn* save = nullptr);

  /// reduce_range with the blobs read straight from an artifact: inside
  /// each pool task, group `range.begin + i` reads blob i of `reader` into
  /// the worker's own buffer, so no more than one blob per worker is ever
  /// resident. A reader that is not open serves no blobs, and a blob whose
  /// read fails its checksum cold-ingests that group — output identical
  /// either way. An open reader must hold exactly range.size() blobs.
  void reduce_range(const ShardRange& range, const IngestArtifactReader& reader,
                    const RuntimeOptions& runtime, RunStats* stats = nullptr,
                    const SaveFn* save = nullptr);

  /// Groups analyzed from a provided blob so far (the cache-hit count).
  std::uint64_t blob_groups() const;

  /// Normalizes and returns the final result. The reducer is spent
  /// afterwards (the accumulator has been moved out).
  EdgeAnalysisResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One perturbed world of a sweep pass: a scenario applied to the
/// baseline world, which differs from the baseline only in the groups
/// listed in `affected` (scenario/sweep.h affected_groups()).
struct SweepPassWorld {
  World world;
  /// Ascending ids of the groups to re-analyze under `world`.
  std::vector<std::size_t> affected;
  /// Optional pre-ingested blobs, one per affected group in the same
  /// order (the distrib fleet hook); empty means none. A group whose blob
  /// is empty or fails to load cold-ingests under `world`.
  std::vector<std::string> blobs;
};

/// What reduce_sweep_pass returns: one result per world, each
/// byte-identical to run_edge_analysis over that world.
struct SweepPassResult {
  EdgeAnalysisResult baseline;
  std::vector<EdgeAnalysisResult> scenarios;  // in `scenarios` order
  /// Baseline groups analyzed from `baseline_blobs` (the cache-hit count).
  std::uint64_t baseline_blob_groups{0};
};

/// The whole of a fault-free scenario sweep's analysis in one pool pass.
/// Its tasks are every baseline group (blob g of `baseline_blobs` when
/// that reader is open, else a cold ingest whose blob goes to `save`) and
/// every (scenario, affected group) pair under the scenario's world. The
/// tasks run heaviest first — by the task group's sessions_per_window —
/// dealt round-robin across the pool's workers, so the slow groups start
/// at once and the light ones fill in behind them.
///
/// The baseline folds its n partials in ascending group-id order. Scenario
/// k folds the same sequence with its affected groups' partials in place
/// of the baseline's. An unaffected group's baseline partial is exact
/// there: its profile is bitwise-equal in both worlds (scenario/sweep.h),
/// and a partial depends only on (series, group profile, config). Every
/// fold therefore performs the merges an EdgeReducer over that world
/// would, at any thread count. An open `baseline_blobs` must hold exactly
/// `baseline.groups.size()` blobs.
SweepPassResult reduce_sweep_pass(
    const World& baseline, const std::vector<SweepPassWorld>& scenarios,
    const DatasetConfig& config, const AnalysisThresholds& thresholds,
    const ComparisonConfig& comparison, GoodputConfig goodput,
    const IngestArtifactReader& baseline_blobs, const RuntimeOptions& runtime,
    RunStats* stats = nullptr, const EdgeReducer::SaveFn* save = nullptr);

/// The ingest half for one shard: generates sessions for `groups` (any
/// ascending or unordered list of group ids — a scale shard's contiguous
/// range or a sweep shard's slice of an affected list), serializes each
/// group's series, and hands the blobs to `sink` in list order, with their
/// global group ids, on the calling thread. Work is chunked
/// (`chunk_groups` per parallel batch) so at most one chunk of blobs is in
/// memory at a time — per-process RSS stays flat in the list size, which
/// is what lets a shard worker process thousands of groups in a small
/// footprint. Ingest is fault-free (the distributed cache must never hold
/// faulted series), and per-group ingest is seeded from the group key
/// alone, so the blobs are identical to what a whole-world ingest would
/// produce for those groups.
void ingest_groups_to_blobs(
    const World& world, const DatasetConfig& config, GoodputConfig goodput,
    const std::vector<std::size_t>& groups, const RuntimeOptions& runtime,
    const std::function<void(std::size_t group, std::string&& blob)>& sink,
    RunStats* stats = nullptr, std::size_t chunk_groups = 64);

}  // namespace fbedge
