// Per-session metric extraction: the glue between the sampler records and
// the aggregation layer (§3).
#pragma once

#include <optional>

#include "goodput/hdratio.h"
#include "sampler/coalescer.h"
#include "sampler/record.h"

namespace fbedge {

/// The metrics one sampled session contributes to its aggregation.
struct SessionMetrics {
  Duration min_rtt{0};
  /// HDratio; nullopt when no transaction could test for the target (§3.2.4).
  std::optional<double> hdratio;
  /// Naive (uncorrected Btotal/Ttotal) HDratio for the §4 ablation.
  std::optional<double> hdratio_naive;
  Bytes traffic{0};
  int txns_tested{0};
  int txns_eligible{0};
};

/// Runs coalescing (§3.2.5) and the goodput methodology (§3.2) over one
/// session sample. The batched ingest (coalesce_batch, evaluate_hd_batch)
/// computes the same values per row.
inline SessionMetrics compute_session_metrics(const SessionSample& sample,
                                              GoodputConfig config = {}) {
  SessionMetrics m;
  m.min_rtt = sample.min_rtt;
  m.traffic = sample.total_bytes;

  CoalescedSession scratch;
  coalesce_session_into(sample.writes, sample.min_rtt, scratch);
  m.txns_eligible = static_cast<int>(scratch.txns.size());

  HdEvaluator eval(config);
  for (const auto& txn : scratch.txns) eval.evaluate(txn);
  const SessionHd& hd = eval.result();
  m.txns_tested = hd.tested;
  m.hdratio = hd.hdratio();
  m.hdratio_naive = hd.hdratio_naive();
  return m;
}

}  // namespace fbedge
