// Work-stealing thread pool for the sharded measurement pipeline.
//
// Tasks are identified by index (one task per user group). A parallel_for
// seeds each worker's bounded deque with one contiguous index range from a
// ShardPlan; owners nibble indices off the front of their own queue, and
// idle workers steal the back half of a victim's range. Queues therefore
// hold O(log n) ranges, never O(n) tasks.
//
// Failure model: tasks must not throw — the library is exception-free and
// fail-fast (FBEDGE_EXPECT aborts on precondition violations). A task that
// escapes with an exception is treated as a precondition violation.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/run_stats.h"
#include "runtime/shard_plan.h"

namespace fbedge {

/// Resolves a requested thread count: values >= 1 pass through, 0 (the
/// default in RuntimeOptions) means hardware concurrency.
int resolve_threads(int requested);

/// Bounded retry for failable tasks (fault-tolerant pipeline runs).
struct RetryPolicy {
  /// Total attempts per task (first run + retries); must be >= 1.
  int max_attempts{3};
  /// Sleep before retry k is backoff_seconds * 2^(k-1); 0 disables sleeping
  /// (tests and deterministic chaos sweeps).
  double backoff_seconds{0};
};

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the thread calling parallel_for always
  /// participates as shard 0, so a 1-thread pool runs inline with zero
  /// threading overhead.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  using Task = std::function<void(std::size_t)>;

  /// A task that also learns which worker runs it. `worker` is in
  /// [0, threads()) and is stable for the duration of one fn invocation —
  /// the handle for per-worker scratch arenas (each worker owns slot
  /// `worker` exclusively while inside the task).
  using WorkerTask = std::function<void(int worker, std::size_t index)>;

  /// Runs fn(i) for every i covered by `plan`, distributing plan shards
  /// round-robin over the pool's workers, and blocks until all tasks have
  /// finished. Execution order is unspecified; determinism is the
  /// reducer's job (merge per-index results in index order).
  RunStats parallel_for(const ShardPlan& plan, const Task& fn);

  /// As parallel_for, but the task receives the executing worker's id, so
  /// callers can route each index to a per-worker scratch slot without
  /// thread_local state.
  RunStats parallel_for_workers(const ShardPlan& plan, const WorkerTask& fn);

  /// Convenience: balanced plan with one shard per thread.
  RunStats parallel_for(std::size_t n, const Task& fn) {
    return parallel_for(ShardPlan::make(n, threads_), fn);
  }

  /// A task that may fail transiently: returns true on success. `worker`
  /// is as in WorkerTask; `attempt` counts from 0. The task must be
  /// deterministic in (index, attempt) for the pipeline's reproducibility
  /// guarantee to hold.
  using FailableTask = std::function<bool(int worker, std::size_t index, int attempt)>;

  /// As parallel_for, but each failed task is retried inline on its owning
  /// worker (with exponential backoff per `policy`) up to
  /// policy.max_attempts total attempts. Indices whose every attempt failed
  /// are flagged in `*failed` (resized to plan.size(); 1 = lost); the
  /// returned stats carry the abort/retry counters in `faults`.
  RunStats parallel_for_failable(const ShardPlan& plan, const FailableTask& fn,
                                 const RetryPolicy& policy,
                                 std::vector<std::uint8_t>* failed = nullptr);

 private:
  /// One worker's bounded run queue of index ranges.
  struct Queue {
    std::mutex mutex;
    std::deque<ShardRange> ranges;
  };

  void worker_loop(int worker);
  void run_job(int worker, const WorkerTask& fn);
  bool pop_local(int worker, std::size_t* index);
  bool steal(int thief, std::size_t* index);

  int threads_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<ShardStats> job_stats_;

  std::mutex job_mutex_;
  std::condition_variable job_cv_;   // workers wait here for a new job
  std::condition_variable done_cv_;  // parallel_for waits here for drain
  const WorkerTask* job_fn_{nullptr};
  std::uint64_t job_generation_{0};
  int workers_remaining_{0};  // participants still inside the current job
  bool stopping_{false};
};

}  // namespace fbedge
