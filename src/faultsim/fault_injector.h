// Fault-injection stages for the measurement pipeline.
//
// SamplerFaultStage sits between the dataset generator and per-session
// metric extraction (where the load balancer hands records to the
// analytics tier, §2.2.2): it truncates, corrupts, duplicates, skews,
// thins, and silences records per the FaultPlan, and guarantees that no
// record failing semantic validation (sampler/io.h) is ever emitted
// downstream. It runs on one record at a time, or on a whole SessionBatch
// in row order; both forms share one schedule and agree record for record.
// AggFaultStage drops whole aggregated windows from a group's series
// (post-aggregation data loss). Both count every injection into a
// FaultCounters, and both make decisions via the pure functions in
// fault_plan.h, so tests can recompute the injected counts exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/fault_plan.h"
#include "runtime/run_stats.h"
#include "sampler/io.h"
#include "sampler/record.h"

namespace fbedge {

struct GroupSeries;
struct SessionBatch;
struct UserGroupProfile;

/// Per-group sampler-layer injector. Construct one per user group (the
/// group-level decisions — PoP outage, thinning — are fixed at
/// construction), then apply() each generated sample or each window's
/// batch; surviving records (possibly mutated, possibly repeated) go on.
class SamplerFaultStage {
 public:
  /// Record form only.
  SamplerFaultStage(const FaultPlan& plan, const UserGroupKey& group);
  /// Both forms: the row form rebuilds a row's record with `group`'s
  /// group-level fields (set_group_fields), which a batch has no column
  /// for and which a truncation's cut position depends on.
  SamplerFaultStage(const FaultPlan& plan, const UserGroupProfile& group);

  /// Record form: runs the fault schedule for one record. `emit` is called
  /// 0, 1, or 2 times with a record that passed validation.
  template <typename Emit>
  void apply(const SessionSample& s, Emit&& emit) {
    bool mutated = false;
    const int copies = schedule(s.id.value, [&](RecordFault fault) {
      mutated = true;
      return mutate(fault, s);
    });
    for (int c = 0; c < copies; ++c) emit(mutated ? scratch_ : s);
  }

  /// Row form: runs the fault schedule over every row of `batch`, in row
  /// order, and sets copies[i] to the number of times the record form
  /// would emit row i's record (0, 1 or 2). Only rows that a truncate,
  /// corrupt or skew fault hits are rebuilt as records; a survivor is
  /// written back into its row (SessionBatch::write_row), so the batch then
  /// holds exactly the records the record form emits. Needs the profile
  /// constructor.
  void apply(SessionBatch& batch, std::vector<std::uint8_t>& copies);

  /// Group was silenced by a PoP outage (nothing will be emitted).
  bool pop_out() const { return pop_out_; }
  /// Group is thinned (most sessions dropped).
  bool thinned() const { return thinned_; }

  const FaultCounters& counters() const { return counters_; }

 private:
  /// The mutating faults; a record takes at most one.
  enum class RecordFault : std::uint8_t { kTruncate, kCorrupt, kSkew };

  /// The fault schedule of one record, keyed by its session id, shared by
  /// both forms: which site fires, in which priority, and what is counted.
  /// `mutate(fault)` applies a mutating fault and returns whether the
  /// result may be emitted. Returns the number of copies to emit.
  template <typename Mutate>
  int schedule(std::uint64_t key, Mutate&& mutate) {
    if (pop_out_) return 0;
    if (thinned_ &&
        !fault_stream(plan_, faultsite::kThinKeep, key)
             .bernoulli(plan_.thin_keep_fraction)) {
      ++counters_.thinned_sessions;
      return 0;
    }
    // At most one mutating fault per record, decided in priority order;
    // each site draws from its own stream so the priorities don't couple.
    bool survived = true;
    if (fault_decision(plan_, faultsite::kTruncate, key, plan_.truncate_rate)) {
      ++counters_.truncated_records;
      survived = mutate(RecordFault::kTruncate);
    } else if (fault_decision(plan_, faultsite::kCorrupt, key, plan_.corrupt_rate)) {
      ++counters_.corrupt_records;
      survived = mutate(RecordFault::kCorrupt);
    } else if (fault_decision(plan_, faultsite::kSkew, key, plan_.skew_rate)) {
      ++counters_.skewed_samples;
      survived = mutate(RecordFault::kSkew);
    }
    if (!survived) {
      ++counters_.rejected_records;
      return 0;
    }
    if (fault_decision(plan_, faultsite::kDuplicate, key, plan_.duplicate_rate)) {
      ++counters_.duplicated_samples;
      return 2;
    }
    return 1;
  }

  /// Applies `fault` to `s` into scratch_; returns whether the result
  /// passes the gate (a skewed record always does: its clocks stay finite).
  bool mutate(RecordFault fault, const SessionSample& s);
  /// Serializes, cuts at a derived position, and re-parses + validates into
  /// scratch_. Returns false when the mangled record is unusable (the
  /// overwhelmingly common outcome).
  bool truncate_record(const SessionSample& s);
  /// Copies `s` into scratch_ and mutates one field per a derived draw.
  void corrupt_record(const SessionSample& s);
  /// Copies `s` into scratch_ and shifts the ACK timestamps of every write
  /// by a derived delta (the NIC timestamps and min_rtt stay put).
  void skew_record(const SessionSample& s);

  FaultPlan plan_;
  bool pop_out_{false};
  bool thinned_{false};
  FaultCounters counters_;
  SessionSample scratch_;
  /// The row form's record: the group-level fields are set once by the
  /// profile constructor, the rest per row by SessionBatch::read_row.
  SessionSample row_;
  bool has_group_fields_{false};
};

/// Aggregation-layer injector: window drops on an aggregated group series.
class AggFaultStage {
 public:
  explicit AggFaultStage(const FaultPlan& plan) : plan_(plan) {}

  /// Removes each of the series' windows per the plan's window_drop_rate
  /// (decision keyed by (group, window index)); counts into `counters`.
  void apply(GroupSeries& series, std::uint64_t group_key,
             FaultCounters& counters) const;

 private:
  FaultPlan plan_;
};

}  // namespace fbedge
