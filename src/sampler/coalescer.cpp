#include "sampler/coalescer.h"

namespace fbedge {

namespace {

/// An open coalescing group: a run of responses measured as one.
struct Group {
  std::size_t first;
  std::size_t last;
  Bytes bytes{0};
};

TxnTiming finalize(const ResponseWrite* writes, const Group& g, Duration min_rtt) {
  const ResponseWrite& head = writes[g.first];
  const ResponseWrite& tail = writes[g.last];
  TxnTiming txn;
  // §3.2.5 delayed-ACK adjustment: drop the final packet and clock to the
  // ACK of the second-to-last packet.
  txn.btotal = g.bytes - tail.last_packet_bytes;
  txn.ttotal = tail.second_last_ack - head.first_byte_nic;
  txn.wnic = head.wnic;
  txn.min_rtt = min_rtt;
  return txn;
}

}  // namespace

CoalescedSession coalesce_session(const std::vector<ResponseWrite>& writes,
                                  Duration min_rtt, CoalescerConfig config) {
  CoalescedSession out;
  coalesce_session_into(writes, min_rtt, out, config);
  return out;
}

void coalesce_session_into(const std::vector<ResponseWrite>& writes, Duration min_rtt,
                           CoalescedSession& out, CoalescerConfig config) {
  out.txns.clear();
  out.ineligible_groups = 0;
  out.coalesced_writes = 0;
  coalesce_writes_append(writes.data(), writes.size(), min_rtt, out.txns,
                         out.ineligible_groups, out.coalesced_writes, config);
}

void coalesce_writes_append(const ResponseWrite* writes, std::size_t n, Duration min_rtt,
                            std::vector<TxnTiming>& txns, int& ineligible_groups,
                            int& coalesced_writes, CoalescerConfig config) {
  if (n == 0) return;

  Group group{0, 0, writes[0].bytes};
  // last_ack of the most recently *closed* group; used for the
  // bytes-in-flight eligibility check on the next group's first byte.
  Duration prev_group_last_ack = -1;

  auto close_group = [&](bool eligible) {
    if (eligible) {
      txns.push_back(finalize(writes, group, min_rtt));
    } else {
      ++ineligible_groups;
    }
    prev_group_last_ack = writes[group.last].last_ack;
  };

  bool current_eligible = true;
  for (std::size_t i = 1; i < n; ++i) {
    const ResponseWrite& prev = writes[group.last];
    const ResponseWrite& cur = writes[i];
    const bool joins = cur.multiplexed || cur.preempted || prev.multiplexed ||
                       prev.preempted ||
                       cur.first_byte_nic <= prev.last_byte_nic + config.back_to_back_gap;
    if (joins) {
      group.last = i;
      group.bytes += cur.bytes;
      ++coalesced_writes;
      continue;
    }
    close_group(current_eligible);
    // New group: ineligible if its first byte left while the previous
    // group's bytes were still in flight (§3.2.5 "Bytes in Flight").
    current_eligible = cur.first_byte_nic >= prev_group_last_ack;
    group = Group{i, i, cur.bytes};
  }
  close_group(current_eligible);
}

}  // namespace fbedge
