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
  /// read fails (changed on disk since open()) cold-ingests that group —
  /// output identical either way. An open reader must hold exactly
  /// range.size() blobs.
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

/// The ingest half for one shard: generates sessions for groups
/// [range.begin, range.end), serializes each group's series, and hands the
/// blobs to `sink` in ascending group order on the calling thread. Work is
/// chunked (`chunk_groups` per parallel batch) so at most one chunk of
/// blobs is in memory at a time — per-process RSS stays flat in the range
/// size, which is what lets a shard worker process thousands of groups in
/// a small footprint. Ingest is fault-free (the distributed cache must
/// never hold faulted series).
void ingest_range_to_blobs(
    const World& world, const DatasetConfig& config, GoodputConfig goodput,
    const ShardRange& range, const RuntimeOptions& runtime,
    const std::function<void(std::size_t group, std::string&& blob)>& sink,
    RunStats* stats = nullptr, std::size_t chunk_groups = 64);

/// Group-list variant of ingest_range_to_blobs for the scenario-sweep
/// workers: a sweep shard's work is a slice of the (usually
/// non-contiguous) ascending affected-group list, not a contiguous range.
/// Ingests exactly `groups` in list order, handing each blob to `sink`
/// with its global group id; same chunked memory model as the range
/// variant. Per-group ingest is seeded from the group key alone, so the
/// blobs are identical to what a whole-world ingest would produce for
/// those groups.
void ingest_groups_to_blobs(
    const World& world, const DatasetConfig& config, GoodputConfig goodput,
    const std::vector<std::size_t>& groups, const RuntimeOptions& runtime,
    const std::function<void(std::size_t group, std::string&& blob)>& sink,
    RunStats* stats = nullptr, std::size_t chunk_groups = 64);

}  // namespace fbedge
