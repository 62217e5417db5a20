// Transaction coalescing and eligibility (§3.2.5).
//
// HTTP/2 preemption and multiplexing inflate a transaction's Ttotal with
// time spent sending *other* responses, so multiplexed/preempted responses
// are coalesced into one larger transaction. Responses written back-to-back
// (no gap at the transport layer) are also coalesced, letting a burst of
// small responses be measured as one large one. A response whose first byte
// was sent while a previous response still had bytes in flight — without
// meeting the coalescing conditions — is ineligible for goodput
// measurement.
#pragma once

#include <vector>

#include "goodput/tmodel.h"
#include "sampler/record.h"

namespace fbedge {

/// Configuration for coalescing decisions.
struct CoalescerConfig {
  /// Max gap between one response's last NIC write and the next response's
  /// first NIC write for them to count as back-to-back.
  Duration back_to_back_gap{50 * kMicrosecond};
};

/// Result of coalescing one session's responses.
struct CoalescedSession {
  /// Eligible, coalesced transactions ready for goodput evaluation.
  std::vector<TxnTiming> txns;
  /// Responses discarded because a prior response was still in flight.
  int ineligible_groups{0};
  /// Number of raw responses merged away by coalescing.
  int coalesced_writes{0};
};

/// Coalesces a session's response writes (ordered by first_byte_nic) into
/// goodput-eligible transactions. `min_rtt` is the session's windowed
/// MinRTT, stamped into each output TxnTiming.
CoalescedSession coalesce_session(const std::vector<ResponseWrite>& writes,
                                  Duration min_rtt, CoalescerConfig config = {});

/// As coalesce_session, but refills `out` in place (the txns vector keeps
/// its capacity across sessions) so the per-session allocation disappears
/// on the analysis hot path. Identical output.
void coalesce_session_into(const std::vector<ResponseWrite>& writes, Duration min_rtt,
                           CoalescedSession& out, CoalescerConfig config = {});

/// Span-based core shared by coalesce_session_into and the batched path
/// (sampler/session_batch.h): coalesces `writes[0..n)` and *appends* the
/// resulting transactions to `txns` (no clear), bumping the two counters.
/// Appending is what lets a whole SessionBatch coalesce into one flat
/// TxnTiming buffer without per-session vectors.
void coalesce_writes_append(const ResponseWrite* writes, std::size_t n, Duration min_rtt,
                            std::vector<TxnTiming>& txns, int& ineligible_groups,
                            int& coalesced_writes, CoalescerConfig config = {});

}  // namespace fbedge
