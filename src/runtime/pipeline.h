// Sharded map over the measurement pipeline, with deterministic merge.
//
// The workload -> sampler -> goodput -> agg pipeline shares no state
// between user groups until aggregation, and each group's sessions come
// from an Rng stream derived from (seed, group id) alone. So the parallel
// schedule is: map every group to a partial result on the pool (any
// thread, any order), then the caller folds the partials IN GROUP-ID
// ORDER. The fold order is what makes results byte-identical for every
// thread count, including 1 — reducers only ever see the same sequence of
// merges. The edge reduce (analysis/edge_reduce.h) has its own pass on
// the same pool: heaviest-first deal, per-task scratch, task-abort retry.
//
// World *building* stays single-threaded (src/workload/world.cpp is
// calibration- and draw-order-sensitive); only the per-group measurement
// work is sharded.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "runtime/run_stats.h"
#include "runtime/shard_plan.h"
#include "runtime/thread_pool.h"

namespace fbedge {

/// Execution knobs threaded through the analysis runners and benches.
struct RuntimeOptions {
  /// Worker threads; 0 means hardware concurrency.
  int threads{0};

  static RuntimeOptions sequential() { return RuntimeOptions{1}; }
};

/// Maps fn(i) over [0, n), returning the results indexed by i. The result
/// type must be default-constructible and movable; each slot is written by
/// exactly one task.
template <typename Fn>
auto parallel_map(std::size_t n, const RuntimeOptions& options, Fn&& fn,
                  RunStats* stats = nullptr) {
  using Partial = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<Partial> partials(n);
  ThreadPool pool(resolve_threads(options.threads));
  RunStats rs = pool.parallel_for(
      ShardPlan::make(n, pool.threads()),
      [&](std::size_t i) { partials[i] = fn(i); });
  if (stats) stats->accumulate(rs);
  return partials;
}

/// As parallel_map, but each task also receives a reference to a per-worker
/// Scratch object (one per pool thread, default-constructed). A worker owns
/// its scratch slot exclusively while inside a task, so the scratch can hold
/// reusable arenas (SessionBatch, coalesced-txn buffers, ...) that persist
/// across all the groups that worker processes — per-group allocations
/// happen only while an arena is still growing toward its high-water mark.
/// Determinism: fn must fully overwrite/clear whatever scratch state it
/// reads, so a task's result is independent of which worker (and which
/// scratch history) ran it; results are still merged by index.
template <typename Scratch, typename Fn>
auto parallel_map_scratch(std::size_t n, const RuntimeOptions& options, Fn&& fn,
                          RunStats* stats = nullptr) {
  using Partial = std::decay_t<std::invoke_result_t<Fn&, Scratch&, std::size_t>>;
  std::vector<Partial> partials(n);
  ThreadPool pool(resolve_threads(options.threads));
  std::vector<Scratch> scratch(static_cast<std::size_t>(pool.threads()));
  RunStats rs = pool.parallel_for_workers(
      ShardPlan::make(n, pool.threads()),
      [&](int worker, std::size_t i) {
        partials[i] = fn(scratch[static_cast<std::size_t>(worker)], i);
      });
  if (stats) stats->accumulate(rs);
  return partials;
}

}  // namespace fbedge
