#include "runtime/thread_pool.h"

#include <atomic>
#include <chrono>

#include "runtime/alloc_counter.h"
#include "util/expect.h"
#include "util/simd.h"

namespace fbedge {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  FBEDGE_EXPECT(threads >= 1, "thread pool needs at least one thread");
  queues_.reserve(static_cast<std::size_t>(threads_));
  for (int w = 0; w < threads_; ++w) queues_.push_back(std::make_unique<Queue>());
  job_stats_.resize(static_cast<std::size_t>(threads_));
  // The calling thread is worker 0; spawn the rest.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(job_mutex_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::pop_local(int worker, std::size_t* index) {
  Queue& q = *queues_[static_cast<std::size_t>(worker)];
  std::lock_guard<std::mutex> lk(q.mutex);
  if (q.ranges.empty()) return false;
  ShardRange& front = q.ranges.front();
  *index = front.begin++;
  if (front.empty()) q.ranges.pop_front();
  return true;
}

bool ThreadPool::steal(int thief, std::size_t* index) {
  for (int offset = 1; offset < threads_; ++offset) {
    const int victim = (thief + offset) % threads_;
    ShardRange taken{};
    {
      Queue& q = *queues_[static_cast<std::size_t>(victim)];
      std::lock_guard<std::mutex> lk(q.mutex);
      if (q.ranges.empty()) continue;
      ShardRange& back = q.ranges.back();
      if (back.size() > 1) {
        // Take the upper half; the victim keeps the lower half.
        const std::size_t mid = back.begin + back.size() / 2;
        taken = {mid, back.end};
        back.end = mid;
      } else {
        taken = back;
        q.ranges.pop_back();
      }
    }
    *index = taken.begin++;
    if (!taken.empty()) {
      Queue& own = *queues_[static_cast<std::size_t>(thief)];
      std::lock_guard<std::mutex> lk(own.mutex);
      own.ranges.push_back(taken);
    }
    return true;
  }
  return false;
}

void ThreadPool::run_job(int worker, const WorkerTask& fn) {
  ShardStats& st = job_stats_[static_cast<std::size_t>(worker)];
  for (;;) {
    std::size_t index = 0;
    bool stolen = false;
    if (!pop_local(worker, &index)) {
      if (!steal(worker, &index)) break;
      stolen = true;
    }
    const auto start = Clock::now();
    try {
      fn(worker, index);
    } catch (...) {
      FBEDGE_EXPECT(false, "pipeline task threw; tasks must fail fast instead");
    }
    st.busy_seconds += seconds_since(start);
    ++st.tasks;
    if (stolen) ++st.steals;
    // Feed the sampled-RSS watermark at task boundaries (every 8th task per
    // worker): a /proc read costs microseconds against tasks that run for
    // milliseconds to seconds, and the watermark then reflects RSS *during*
    // the run, not just wherever the run happened to end.
    if ((st.tasks & 7u) == 0) rss_sample();
  }
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(job_mutex_);
  for (;;) {
    job_cv_.wait(lk, [&] { return stopping_ || job_generation_ != seen; });
    if (stopping_) return;
    seen = job_generation_;
    const WorkerTask* fn = job_fn_;
    lk.unlock();
    run_job(worker, *fn);
    lk.lock();
    if (--workers_remaining_ == 0) done_cv_.notify_all();
  }
}

RunStats ThreadPool::parallel_for(const ShardPlan& plan, const Task& fn) {
  return parallel_for_workers(plan,
                              [&fn](int, std::size_t i) { fn(i); });
}

RunStats ThreadPool::parallel_for_workers(const ShardPlan& plan, const WorkerTask& fn) {
  RunStats rs;
  rs.threads = threads_;
  rs.simd_avx2 = simd::avx2_active() ? 1 : 0;
  rs.shards.resize(static_cast<std::size_t>(threads_));
  if (plan.size() == 0) return rs;

  const AllocCounters alloc_start = alloc_counters_now();
  const auto wall_start = Clock::now();
  {
    std::lock_guard<std::mutex> lk(job_mutex_);
    // All workers are parked in job_cv_.wait here (the previous job only
    // finished once every participant left run_job), so seeding is safe.
    job_stats_.assign(static_cast<std::size_t>(threads_), ShardStats{});
    for (int s = 0; s < plan.shard_count(); ++s) {
      const ShardRange r = plan.shard(s);
      if (r.empty()) continue;
      queues_[static_cast<std::size_t>(s % threads_)]->ranges.push_back(r);
    }
    job_fn_ = &fn;
    workers_remaining_ = threads_;
    ++job_generation_;
  }
  job_cv_.notify_all();

  run_job(0, fn);  // the caller is worker 0

  {
    std::unique_lock<std::mutex> lk(job_mutex_);
    if (--workers_remaining_ > 0) {
      done_cv_.wait(lk, [&] { return workers_remaining_ == 0; });
    }
  }

  rs.wall_seconds = seconds_since(wall_start);
  const AllocCounters alloc_end = alloc_counters_now();
  rs.alloc_count = alloc_end.count - alloc_start.count;
  rs.alloc_bytes = alloc_end.bytes - alloc_start.bytes;
  rs.rss_sampled_peak_bytes = rss_sample();
  rs.shards = job_stats_;
  for (const auto& st : rs.shards) {
    rs.tasks += st.tasks;
    rs.steals += st.steals;
    rs.cpu_seconds += st.busy_seconds;
  }
  return rs;
}

RunStats ThreadPool::parallel_for_failable(const ShardPlan& plan,
                                           const FailableTask& fn,
                                           const RetryPolicy& policy,
                                           std::vector<std::uint8_t>* failed) {
  FBEDGE_EXPECT(policy.max_attempts >= 1, "retry policy needs at least one attempt");
  if (failed) failed->assign(plan.size(), 0);
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> lost{0};
  // The retry loop runs inline on whichever worker popped the index, so
  // each `failed` slot is written by exactly one thread and the pool's
  // join provides the ordering for the caller's reads.
  const WorkerTask wrapper = [&](int worker, std::size_t i) {
    for (int attempt = 0;; ++attempt) {
      if (fn(worker, i, attempt)) return;
      aborts.fetch_add(1, std::memory_order_relaxed);
      if (attempt + 1 >= policy.max_attempts) {
        lost.fetch_add(1, std::memory_order_relaxed);
        if (failed) (*failed)[i] = 1;
        return;
      }
      retries.fetch_add(1, std::memory_order_relaxed);
      if (policy.backoff_seconds > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            policy.backoff_seconds * static_cast<double>(1u << attempt)));
      }
    }
  };
  RunStats rs = parallel_for_workers(plan, wrapper);
  rs.faults.task_aborts = aborts.load();
  rs.faults.task_retries = retries.load();
  rs.faults.lost_groups = lost.load();
  return rs;
}

}  // namespace fbedge
