#include "faultsim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "agg/aggregation.h"
#include "sampler/session_batch.h"
#include "workload/generator.h"

namespace fbedge {

SamplerFaultStage::SamplerFaultStage(const FaultPlan& plan,
                                     const UserGroupKey& group)
    : plan_(plan) {
  // PoP outage is keyed by the PoP alone so every group served by an
  // affected PoP goes silent together.
  pop_out_ = fault_decision(plan_, faultsite::kPopOutage,
                            static_cast<std::uint64_t>(group.pop.value),
                            plan_.pop_outage_rate);
  if (pop_out_) {
    ++counters_.pop_outage_groups;
    return;
  }
  thinned_ = fault_decision(plan_, faultsite::kThinGroup, group_fault_key(group),
                            plan_.thin_rate);
  if (thinned_) ++counters_.thinned_groups;
}

SamplerFaultStage::SamplerFaultStage(const FaultPlan& plan,
                                     const UserGroupProfile& group)
    : SamplerFaultStage(plan, group.key) {
  set_group_fields(group, row_);
  has_group_fields_ = true;
}

void SamplerFaultStage::apply(SessionBatch& batch, std::vector<std::uint8_t>& copies) {
  FBEDGE_EXPECT(has_group_fields_, "the row form needs the group's profile");
  const std::size_t rows = batch.size();
  copies.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    copies[i] = static_cast<std::uint8_t>(
        schedule(batch.id[i].value, [&](RecordFault fault) {
          batch.read_row(i, row_);
          if (!mutate(fault, row_)) return false;
          // A survivor keeps every complete header field, so its
          // group-level fields are the row's, which the batch cannot hold.
          FBEDGE_EXPECT(scratch_.pop == row_.pop &&
                            scratch_.client.bgp_prefix == row_.client.bgp_prefix &&
                            scratch_.client.asn == row_.client.asn &&
                            scratch_.client.country == row_.client.country &&
                            scratch_.client.continent == row_.client.continent,
                        "a mutated record changed a group-level field");
          batch.write_row(i, scratch_);
          return true;
        }));
  }
}

bool SamplerFaultStage::mutate(RecordFault fault, const SessionSample& s) {
  switch (fault) {
    case RecordFault::kTruncate:
      return truncate_record(s);
    case RecordFault::kCorrupt:
      corrupt_record(s);
      return validate_sample(scratch_) == SampleDefect::kNone;
    case RecordFault::kSkew:
      skew_record(s);
      return true;
  }
  return false;
}

bool SamplerFaultStage::truncate_record(const SessionSample& s) {
  // Exercise the real wire format: serialize, cut mid-line, re-parse. A cut
  // almost never lands on a record boundary, so the record is usually lost;
  // when it does parse, the validation gate still applies.
  std::string line = serialize_sample(s);
  if (line.size() < 2) return false;
  Rng rng = fault_stream(plan_, faultsite::kTruncatePos, s.id.value);
  const auto cut = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(line.size()) - 1));
  line.resize(cut);
  // parse_sample rejects every field count but 17 + 9k; counting tabs
  // rejects most cuts without parsing them.
  const auto tabs = static_cast<std::size_t>(std::count(line.begin(), line.end(), '\t'));
  if (!sample_field_count_ok(tabs + 1)) return false;
  const auto parsed = parse_sample(line);
  if (!parsed || validate_sample(*parsed) != SampleDefect::kNone) return false;
  scratch_ = *parsed;
  return true;
}

void SamplerFaultStage::corrupt_record(const SessionSample& s) {
  scratch_ = s;
  Rng rng = fault_stream(plan_, faultsite::kCorruptKind, s.id.value);
  switch (rng.uniform_int(0, 5)) {
    case 0: scratch_.total_bytes = -1; break;
    case 1: scratch_.min_rtt = -0.05; break;
    case 2: scratch_.min_rtt = std::numeric_limits<double>::quiet_NaN(); break;
    case 3: scratch_.client.bgp_prefix.length = 99; break;
    case 4: scratch_.route_index = -3; break;
    default:
      if (!scratch_.writes.empty()) {
        scratch_.writes.front().bytes = -500;
      } else {
        scratch_.num_transactions = -1;
      }
      break;
  }
}

void SamplerFaultStage::skew_record(const SessionSample& s) {
  scratch_ = s;
  Rng rng = fault_stream(plan_, faultsite::kSkewDelta, s.id.value);
  // The ACK stream's clock drifts against the NIC stream's; min_rtt (the
  // MinRTT stream) and the NIC write timestamps stay put. A negative delta
  // can drive a transaction's Ttotal to or below zero — exactly the input
  // the goodput evaluator must reject rather than abort on.
  const Duration delta = rng.uniform(-plan_.skew_max, plan_.skew_max);
  for (auto& w : scratch_.writes) {
    w.second_last_ack += delta;
    w.last_ack += delta;
  }
}

void AggFaultStage::apply(GroupSeries& series, std::uint64_t group_key,
                          FaultCounters& counters) const {
  if (plan_.window_drop_rate <= 0) return;
  counters.dropped_windows +=
      series.windows.remove_if([&](int w, const WindowAgg&) {
        return fault_decision(
            plan_, faultsite::kWindowDrop,
            hash_combine(group_key, static_cast<std::uint64_t>(w)),
            plan_.window_drop_rate);
      });
}

}  // namespace fbedge
