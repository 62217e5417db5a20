// Execution observability for sharded pipeline runs.
//
// Every parallel_for reports where the work actually went: how many tasks
// each shard executed, how many of those were stolen from another shard's
// queue, and how busy each worker was relative to the run's wall time.
// Bench binaries print this (to stderr, so measurement output stays
// byte-identical across thread counts) to prove shard utilization.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

namespace fbedge {

/// Counters for one worker/shard of a parallel run.
struct ShardStats {
  std::uint64_t tasks{0};
  std::uint64_t steals{0};
  double busy_seconds{0};
};

/// Per-fault-type counters for a run under fault injection (src/faultsim/).
/// Lives here — not in faultsim — because the runtime and analysis layers
/// carry these counters through RunStats without depending on the fault
/// plan itself. All counters stay zero when no faults are injected.
struct FaultCounters {
  // Sampler-layer injections.
  std::uint64_t truncated_records{0};  // records cut mid-line at the sampler
  std::uint64_t corrupt_records{0};    // records with mutated fields
  std::uint64_t rejected_records{0};   // faulted records dropped by validation
  std::uint64_t duplicated_samples{0};
  std::uint64_t skewed_samples{0};     // ACK-clock skew vs the NIC clock
  std::uint64_t thinned_groups{0};     // groups with most sessions dropped
  std::uint64_t thinned_sessions{0};
  std::uint64_t pop_outage_groups{0};  // groups silenced by a PoP outage
  // Aggregation-layer injections.
  std::uint64_t dropped_windows{0};    // 15-minute windows lost post-agg
  // Stream-layer injections (src/stream/): delivery-order faults on the
  // micro-batch transport between the source and the window machines.
  std::uint64_t stream_late_batches{0};       // micro-batches held back
  std::uint64_t stream_duplicate_batches{0};  // micro-batches delivered twice
  /// Degraded artifact of stream lateness: rows that arrived after their
  /// window sealed and were dropped by the window machine.
  std::uint64_t stream_dropped_rows{0};
  // Runtime-layer injections.
  std::uint64_t task_aborts{0};   // failed shard-task attempts
  std::uint64_t task_retries{0};  // re-executions after an abort
  std::uint64_t lost_groups{0};   // groups that exhausted every attempt
  // Distrib-layer injections (src/distrib/): worker processes killed by the
  // kWorkerCrash site before publishing anything.
  std::uint64_t worker_crashes{0};   // injected worker-process deaths
  std::uint64_t worker_retries{0};   // re-spawns after a crashed attempt
  std::uint64_t degraded_shards{0};  // shards that exhausted every attempt
                                     // (reduced via cold ingest instead)
  // Scenario-pack perturbations (src/scenario/): one count per (group,
  // delta) application, so tests can recount every injected perturbation
  // exactly from the pack alone.
  std::uint64_t scenario_drained_groups{0};    // PoP-drain reroute episodes
  std::uint64_t scenario_depref_groups{0};     // groups with routes demoted
  std::uint64_t scenario_flash_groups{0};      // flash-crowd load multipliers
  std::uint64_t scenario_cable_cut_groups{0};  // continent-pair RTT episodes
  // Incremental sweep decisions (analysis/sweep.h): per scenario of a
  // sweep, groups that reuse the baseline's result because they lie
  // outside the scenario's affected_groups() footprint vs. groups
  // re-ingested under the perturbed world. reused + recomputed sums to
  // (scenario count) x (group count); both stay zero outside sweeps and in
  // faulted runs (which bypass reuse in both directions).
  std::uint64_t scenario_groups_reused{0};
  std::uint64_t scenario_groups_recomputed{0};

  bool any() const {
    return truncated_records || corrupt_records || rejected_records ||
           duplicated_samples || skewed_samples || thinned_groups ||
           thinned_sessions || pop_outage_groups || dropped_windows ||
           stream_late_batches || stream_duplicate_batches ||
           stream_dropped_rows || task_aborts || task_retries || lost_groups ||
           worker_crashes || worker_retries || degraded_shards ||
           scenario_drained_groups || scenario_depref_groups ||
           scenario_flash_groups || scenario_cable_cut_groups ||
           scenario_groups_reused || scenario_groups_recomputed;
  }

  void accumulate(const FaultCounters& other) {
    truncated_records += other.truncated_records;
    corrupt_records += other.corrupt_records;
    rejected_records += other.rejected_records;
    duplicated_samples += other.duplicated_samples;
    skewed_samples += other.skewed_samples;
    thinned_groups += other.thinned_groups;
    thinned_sessions += other.thinned_sessions;
    pop_outage_groups += other.pop_outage_groups;
    dropped_windows += other.dropped_windows;
    stream_late_batches += other.stream_late_batches;
    stream_duplicate_batches += other.stream_duplicate_batches;
    stream_dropped_rows += other.stream_dropped_rows;
    task_aborts += other.task_aborts;
    task_retries += other.task_retries;
    lost_groups += other.lost_groups;
    worker_crashes += other.worker_crashes;
    worker_retries += other.worker_retries;
    degraded_shards += other.degraded_shards;
    scenario_drained_groups += other.scenario_drained_groups;
    scenario_depref_groups += other.scenario_depref_groups;
    scenario_flash_groups += other.scenario_flash_groups;
    scenario_cable_cut_groups += other.scenario_cable_cut_groups;
    scenario_groups_reused += other.scenario_groups_reused;
    scenario_groups_recomputed += other.scenario_groups_recomputed;
  }
};

/// Aggregate counters for one parallel_for (or a whole bench run when
/// accumulated across phases).
struct RunStats {
  int threads{0};
  std::uint64_t tasks{0};
  std::uint64_t steals{0};
  double wall_seconds{0};
  double cpu_seconds{0};  // sum of per-worker busy time
  /// Heap allocations during the run (all threads; runtime/alloc_counter.h).
  /// The batching work's "zero per-session allocations" claim is checked
  /// against these: at steady state they scale with windows, not sessions.
  std::uint64_t alloc_count{0};
  std::uint64_t alloc_bytes{0};
  /// Sampled-RSS high-water mark (runtime/alloc_counter.h rss_sample()):
  /// the largest *current* RSS observed at the sampling points the run
  /// actually passed through (task boundaries, stream window seals). This
  /// is the single RSS counter every bench reports (`runtime_rss_peak` in
  /// --json) and the number the streaming monitor's and the shard
  /// coordinator's flat-memory claims are judged by.
  std::uint64_t rss_sampled_peak_bytes{0};
  /// Streaming-monitor observability (src/stream/); all zero for runs that
  /// never touch the stream pipeline.
  std::uint64_t stream_windows_sealed{0};
  std::uint64_t stream_watermark_advances{0};
  /// Peak simultaneously-open windows across all group machines (max, not
  /// sum): the streaming memory model in one number.
  std::uint64_t stream_open_windows_peak{0};
  /// Ingest-artifact cache observability (analysis/ingest_cache.h): groups
  /// served from a cached artifact vs. groups that had to cold-ingest.
  /// Both stay zero when no cache directory is configured.
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  /// Artifact blob bytes read and checked against their checksums
  /// (IngestArtifactReader::read(), an eager open() pass included). A warm
  /// run_edge_analysis reads each blob once: the artifact's blob bytes.
  std::uint64_t cache_read_bytes{0};
  /// Wall time spent opening and writing cache artifacts. Blob reads
  /// happen inside the reduce's pool tasks, so their time is part of
  /// wall_seconds, not cache_load_seconds; on the warm run_edge_analysis
  /// path the open reads only the index.
  double cache_load_seconds{0};
  double cache_save_seconds{0};
  /// Artifact writes that failed (unwritable or unreachable cache dir):
  /// the run's output is unaffected, but the next run will be cold again.
  std::uint64_t cache_write_failures{0};
  /// Multi-process shard-coordinator observability (src/distrib/): worker
  /// subprocesses launched (including re-spawns), worker attempts that
  /// exited nonzero (or were signal-killed), and the largest peak RSS any
  /// single worker process reported (ru_maxrss). All zero for in-process
  /// runs.
  std::uint64_t workers_spawned{0};
  std::uint64_t worker_failures{0};
  std::uint64_t worker_rss_peak_bytes{0};
  /// Which columnar-kernel path the run dispatched to (util/simd.h):
  /// 1 = AVX2, 0 = scalar reference, -1 = unknown (stats assembled outside
  /// the sharded runtime). Carried through so benches and --verbose can
  /// prove a run did not silently fall back to scalar.
  int simd_avx2{-1};
  std::vector<ShardStats> shards;
  FaultCounters faults;

  /// Fraction of the available thread-seconds spent executing tasks.
  double utilization() const {
    return threads > 0 && wall_seconds > 0
               ? cpu_seconds / (wall_seconds * threads)
               : 0.0;
  }

  /// Folds another run's counters in (multi-phase benches); wall times add,
  /// shard vectors add element-wise.
  void accumulate(const RunStats& other) {
    threads = std::max(threads, other.threads);
    tasks += other.tasks;
    steals += other.steals;
    wall_seconds += other.wall_seconds;
    cpu_seconds += other.cpu_seconds;
    alloc_count += other.alloc_count;
    alloc_bytes += other.alloc_bytes;
    if (other.rss_sampled_peak_bytes > rss_sampled_peak_bytes) {
      rss_sampled_peak_bytes = other.rss_sampled_peak_bytes;
    }
    stream_windows_sealed += other.stream_windows_sealed;
    stream_watermark_advances += other.stream_watermark_advances;
    if (other.stream_open_windows_peak > stream_open_windows_peak) {
      stream_open_windows_peak = other.stream_open_windows_peak;
    }
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_read_bytes += other.cache_read_bytes;
    cache_load_seconds += other.cache_load_seconds;
    cache_save_seconds += other.cache_save_seconds;
    cache_write_failures += other.cache_write_failures;
    workers_spawned += other.workers_spawned;
    worker_failures += other.worker_failures;
    if (other.worker_rss_peak_bytes > worker_rss_peak_bytes) {
      worker_rss_peak_bytes = other.worker_rss_peak_bytes;
    }
    if (other.simd_avx2 >= 0) simd_avx2 = other.simd_avx2;
    faults.accumulate(other.faults);
    if (shards.size() < other.shards.size()) shards.resize(other.shards.size());
    for (std::size_t s = 0; s < other.shards.size(); ++s) {
      shards[s].tasks += other.shards[s].tasks;
      shards[s].steals += other.shards[s].steals;
      shards[s].busy_seconds += other.shards[s].busy_seconds;
    }
  }

  /// Human-readable dump. Defaults to stderr so stdout (the measurement
  /// output) is independent of thread count and machine speed.
  void print(const char* label, std::FILE* out = stderr) const {
    std::fprintf(out,
                 "[runtime] %s: threads=%d tasks=%llu steals=%llu "
                 "wall=%.3fs cpu=%.3fs util=%.1f%% allocs=%llu "
                 "alloc_mb=%.1f rss_peak_mb=%.1f simd=%s\n",
                 label, threads, static_cast<unsigned long long>(tasks),
                 static_cast<unsigned long long>(steals), wall_seconds,
                 cpu_seconds, 100.0 * utilization(),
                 static_cast<unsigned long long>(alloc_count),
                 static_cast<double>(alloc_bytes) / (1024.0 * 1024.0),
                 static_cast<double>(rss_sampled_peak_bytes) / (1024.0 * 1024.0),
                 simd_avx2 == 1 ? "avx2" : simd_avx2 == 0 ? "scalar" : "unknown");
    if (stream_windows_sealed > 0 || stream_watermark_advances > 0) {
      std::fprintf(out,
                   "[runtime]   stream: sealed=%llu watermark_advances=%llu "
                   "open_windows_peak=%llu\n",
                   static_cast<unsigned long long>(stream_windows_sealed),
                   static_cast<unsigned long long>(stream_watermark_advances),
                   static_cast<unsigned long long>(stream_open_windows_peak));
    }
    if (cache_hits > 0 || cache_misses > 0 || cache_write_failures > 0) {
      std::fprintf(out,
                   "[runtime]   cache: hits=%llu misses=%llu read_bytes=%llu "
                   "load=%.3fs save=%.3fs write_failures=%llu\n",
                   static_cast<unsigned long long>(cache_hits),
                   static_cast<unsigned long long>(cache_misses),
                   static_cast<unsigned long long>(cache_read_bytes),
                   cache_load_seconds, cache_save_seconds,
                   static_cast<unsigned long long>(cache_write_failures));
    }
    if (workers_spawned > 0) {
      std::fprintf(out,
                   "[runtime]   workers: spawned=%llu failures=%llu "
                   "worker_rss_peak_mb=%.1f\n",
                   static_cast<unsigned long long>(workers_spawned),
                   static_cast<unsigned long long>(worker_failures),
                   static_cast<double>(worker_rss_peak_bytes) / (1024.0 * 1024.0));
    }
    for (std::size_t s = 0; s < shards.size(); ++s) {
      std::fprintf(out, "[runtime]   shard %zu: tasks=%llu steals=%llu busy=%.3fs\n",
                   s, static_cast<unsigned long long>(shards[s].tasks),
                   static_cast<unsigned long long>(shards[s].steals),
                   shards[s].busy_seconds);
    }
    if (faults.any()) {
      std::fprintf(
          out,
          "[runtime]   faults: trunc=%llu corrupt=%llu rejected=%llu dup=%llu "
          "skew=%llu thin_groups=%llu thin_sessions=%llu pop_out=%llu "
          "dropped_windows=%llu stream_late=%llu stream_dup=%llu "
          "stream_dropped_rows=%llu aborts=%llu retries=%llu lost_groups=%llu\n",
          static_cast<unsigned long long>(faults.truncated_records),
          static_cast<unsigned long long>(faults.corrupt_records),
          static_cast<unsigned long long>(faults.rejected_records),
          static_cast<unsigned long long>(faults.duplicated_samples),
          static_cast<unsigned long long>(faults.skewed_samples),
          static_cast<unsigned long long>(faults.thinned_groups),
          static_cast<unsigned long long>(faults.thinned_sessions),
          static_cast<unsigned long long>(faults.pop_outage_groups),
          static_cast<unsigned long long>(faults.dropped_windows),
          static_cast<unsigned long long>(faults.stream_late_batches),
          static_cast<unsigned long long>(faults.stream_duplicate_batches),
          static_cast<unsigned long long>(faults.stream_dropped_rows),
          static_cast<unsigned long long>(faults.task_aborts),
          static_cast<unsigned long long>(faults.task_retries),
          static_cast<unsigned long long>(faults.lost_groups));
    }
    if (faults.worker_crashes || faults.worker_retries || faults.degraded_shards) {
      std::fprintf(
          out,
          "[runtime]   worker faults: crashes=%llu retries=%llu "
          "degraded_shards=%llu\n",
          static_cast<unsigned long long>(faults.worker_crashes),
          static_cast<unsigned long long>(faults.worker_retries),
          static_cast<unsigned long long>(faults.degraded_shards));
    }
    if (faults.scenario_drained_groups || faults.scenario_depref_groups ||
        faults.scenario_flash_groups || faults.scenario_cable_cut_groups) {
      std::fprintf(
          out,
          "[runtime]   scenario: drained=%llu depref=%llu flash=%llu "
          "cable_cut=%llu\n",
          static_cast<unsigned long long>(faults.scenario_drained_groups),
          static_cast<unsigned long long>(faults.scenario_depref_groups),
          static_cast<unsigned long long>(faults.scenario_flash_groups),
          static_cast<unsigned long long>(faults.scenario_cable_cut_groups));
    }
    if (faults.scenario_groups_reused || faults.scenario_groups_recomputed) {
      std::fprintf(
          out, "[runtime]   sweep: groups_reused=%llu groups_recomputed=%llu\n",
          static_cast<unsigned long long>(faults.scenario_groups_reused),
          static_cast<unsigned long long>(faults.scenario_groups_recomputed));
    }
  }
};

}  // namespace fbedge
