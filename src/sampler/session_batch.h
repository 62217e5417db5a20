// Columnar (SoA) session storage for the analysis hot path.
//
// The scalar pipeline builds one SessionSample at a time — an AoS record
// with its own writes vector — and walks it field-by-field through
// sampler -> goodput -> agg. At fig6/table1 scale (10^6..10^7 sessions per
// run) that layout taxes every stage twice: an allocation per session and a
// cache line per field touch. A SessionBatch instead holds one *window* of
// a group's sessions as parallel columns plus a single flat ResponseWrite
// buffer indexed by per-row offset/count. The batch is the arena: clear()
// drops the rows but keeps every column's capacity, so after the first few
// windows a group's sessions are generated, coalesced, HD-evaluated and
// aggregated with zero per-session heap allocations.
//
// Batching changes only where values live. The generator fills rows through
// the same simulation code (and therefore the same RNG draw sequence) as
// the scalar path, and downstream kernels consume rows in row order, so
// every derived statistic is bit-identical to the per-session pipeline —
// see tests/session_batch_test.cpp for the enforced equivalence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "http/types.h"
#include "sampler/coalescer.h"
#include "sampler/record.h"
#include "util/ids.h"
#include "util/units.h"

namespace fbedge {

struct SessionBatch {
  // Hot scalar columns; element i of each column belongs to session row i.
  std::vector<SessionId> id;
  std::vector<std::uint32_t> client_ip;
  std::vector<std::uint8_t> hosting;  // hosting_provider flag (§2.2.4 filter)
  std::vector<HttpVersion> version;
  std::vector<EndpointClass> endpoint;
  std::vector<SimTime> established_at;
  std::vector<Duration> duration;
  std::vector<Duration> busy_time;
  std::vector<Bytes> total_bytes;
  std::vector<std::int32_t> num_transactions;
  std::vector<std::int32_t> route_index;
  std::vector<Duration> min_rtt;

  // Flat write buffer: row i's ResponseWrites are
  // writes[write_offset[i] .. write_offset[i] + write_count[i]).
  std::vector<ResponseWrite> writes;
  std::vector<std::uint32_t> write_offset;
  std::vector<std::uint32_t> write_count;

  std::size_t size() const { return established_at.size(); }
  bool empty() const { return established_at.empty(); }

  /// Drops all rows but keeps every column's capacity — the arena reuse
  /// that makes the steady-state loop allocation-free.
  void clear();

  /// Total capacity currently reserved across all columns, in bytes.
  std::size_t arena_bytes() const;

  // Row protocol (generator side): begin_row, then add_write per response,
  // then finish_row. Mirrors the order run_session_into learns the values,
  // so the emitter needs no staging buffer.
  void begin_row(SessionId sid, SimTime at, int route, std::uint32_t ip,
                 bool hosting_provider, HttpVersion ver, EndpointClass ep,
                 int num_txns);

  void add_write(const ResponseWrite& w) {
    writes.push_back(w);
    total_bytes.back() += w.bytes;
  }

  void finish_row(Duration dur, Duration busy, Duration rtt) {
    duration.push_back(dur);
    busy_time.push_back(busy);
    min_rtt.push_back(rtt);
    write_count.push_back(static_cast<std::uint32_t>(writes.size()) -
                          write_offset.back());
  }

  // Record view of one row (the row form of the sampler fault stage).
  // The group-level fields of a SessionSample — PoP, BGP prefix, ASN,
  // country, continent — have no column: read_row leaves them as they are
  // in `out`, and write_row ignores them in `s`.

  /// Fills `out`'s per-session fields, its writes included, from row i.
  void read_row(std::size_t i, SessionSample& out) const;

  /// Overwrites row i with `s`'s per-session fields. `s` may carry fewer
  /// writes than the row, never more: they go to the front of the row's
  /// span and write_count[i] shrinks, so no other row moves.
  void write_row(std::size_t i, const SessionSample& s);
};

/// §3.2.5 coalescing output for a whole batch: one flat TxnTiming buffer,
/// row i's transactions at txns[offset[i] .. offset[i] + count[i]) — the
/// exact span layout evaluate_hd_batch() consumes. Counters aggregate over
/// all non-skipped rows.
struct CoalescedBatch {
  std::vector<TxnTiming> txns;
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> count;
  int ineligible_groups{0};
  int coalesced_writes{0};

  void clear() {
    txns.clear();
    offset.clear();
    count.clear();
    ineligible_groups = 0;
    coalesced_writes = 0;
  }
};

/// Coalesces every row of `batch` into `out` (cleared first; capacity
/// reused). `skip` is an optional per-row mask (nullptr = coalesce all):
/// rows with a nonzero skip byte get count 0 and cost nothing — the
/// analysis passes the hosting column here so hosting-provider sessions
/// are filtered before, not after, the goodput work.
void coalesce_batch(const SessionBatch& batch, const std::uint8_t* skip,
                    CoalescedBatch& out, CoalescerConfig config = {});

}  // namespace fbedge
