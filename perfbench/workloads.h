// The benchmark's four workloads, each one public fbedge entry point.
//
//   monitor_stream  run_stream_monitor, stream mode
//   edge_warm       run_edge_analysis served from a warm ingest artifact
//   whatif_sweep    run_scenario_sweep over eight packs, empty cache each call
//   edge_faulted    run_edge_analysis under a sampler + task-abort FaultPlan
//
// call() is the untraced measurement: exactly the public entry point.
// traced_call() rebuilds the same work from the public calls into each
// layer, wrapped in spans, and must return the same digests as call().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  /// Dataset (session) seed; the world is always built from seed 2019.
  std::uint64_t seed{2019};
  int days{10};
  int threads{1};
  /// Directory holding the scenario pack .conf files (whatif_sweep).
  std::string packs_dir;
  /// Private scratch directory for artifacts; removed by the caller.
  std::string scratch_dir;
};

/// What one call produced: the digests the output check compares, and the
/// counts the end-to-end metrics divide by.
struct CallResult {
  std::vector<std::uint64_t> digests;
  std::uint64_t sessions{0};
  /// Groups the call attempted, and how many of them it lost.
  std::uint64_t groups{0};
  std::uint64_t lost_groups{0};
  /// Empty when the call did what the workload promises (e.g. edge_warm
  /// was served from the artifact); otherwise why it did not.
  std::string error;
};

using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything a call needs (world, packs, warm artifact). May be
  /// called repeatedly; each call replaces the previous state.
  virtual void setup() = 0;

  /// One untraced call of the workload's public entry point.
  virtual CallResult call() = 0;

  /// The same work rebuilt from per-layer public calls inside spans. Fills
  /// `layer` with the workload's per-layer counts and ratios; self times
  /// come from the tracer.
  virtual CallResult traced_call(Tracer& tracer, Metrics& layer) = 0;

  /// Human-readable description of the last result (fault counters etc.).
  virtual std::string describe(const CallResult& result) const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const WorkloadConfig& config);

}  // namespace perfbench
