#include "sampler/session_batch.h"

namespace fbedge {

void SessionBatch::clear() {
  id.clear();
  client_ip.clear();
  hosting.clear();
  version.clear();
  endpoint.clear();
  established_at.clear();
  duration.clear();
  busy_time.clear();
  total_bytes.clear();
  num_transactions.clear();
  route_index.clear();
  min_rtt.clear();
  writes.clear();
  write_offset.clear();
  write_count.clear();
}

std::size_t SessionBatch::arena_bytes() const {
  auto cap = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return cap(id) + cap(client_ip) + cap(hosting) + cap(version) + cap(endpoint) +
         cap(established_at) + cap(duration) + cap(busy_time) + cap(total_bytes) +
         cap(num_transactions) + cap(route_index) + cap(min_rtt) + cap(writes) +
         cap(write_offset) + cap(write_count);
}

void SessionBatch::begin_row(SessionId sid, SimTime at, int route, std::uint32_t ip,
                             bool hosting_provider, HttpVersion ver, EndpointClass ep,
                             int num_txns) {
  id.push_back(sid);
  client_ip.push_back(ip);
  hosting.push_back(hosting_provider ? 1 : 0);
  version.push_back(ver);
  endpoint.push_back(ep);
  established_at.push_back(at);
  total_bytes.push_back(0);
  num_transactions.push_back(num_txns);
  route_index.push_back(route);
  write_offset.push_back(static_cast<std::uint32_t>(writes.size()));
}

void coalesce_batch(const SessionBatch& batch, const std::uint8_t* skip,
                    CoalescedBatch& out, CoalescerConfig config) {
  out.clear();
  const std::size_t rows = batch.size();
  out.offset.reserve(rows);
  out.count.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto before = static_cast<std::uint32_t>(out.txns.size());
    out.offset.push_back(before);
    if (skip != nullptr && skip[i] != 0) {
      out.count.push_back(0);
      continue;
    }
    coalesce_writes_append(batch.writes.data() + batch.write_offset[i],
                           batch.write_count[i], batch.min_rtt[i], out.txns,
                           out.ineligible_groups, out.coalesced_writes, config);
    out.count.push_back(static_cast<std::uint32_t>(out.txns.size()) - before);
  }
}

}  // namespace fbedge
