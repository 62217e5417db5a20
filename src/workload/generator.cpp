#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"

namespace fbedge {

namespace {

/// Poisson draw: Knuth for small means, normal approximation for large.
int poisson(Rng& rng, double mean) {
  if (mean <= 0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double product = rng.uniform();
    int count = 0;
    while (product > limit) {
      ++count;
      product *= rng.uniform();
    }
    return count;
  }
  return std::max(0, static_cast<int>(std::llround(rng.normal(mean, std::sqrt(mean)))));
}

/// A run of transactions transferred as one unit (overlapping or
/// back-to-back responses; §3.2.5).
struct TransferGroup {
  std::size_t first;
  std::size_t last;
  Bytes bytes{0};
  bool overlapped{false};  // any member arrived while previous was in flight
};

/// Emitter writing into a classic AoS SessionSample (the legacy layout).
struct SampleEmitter {
  SessionSample& sample;

  void begin_session(const UserGroupProfile& group, const SessionSpec& spec,
                     int route_index, SimTime start, std::uint32_t ip, bool hosting) {
    // Every other field is assigned here or at finish; only the
    // accumulating ones need a reset.
    sample.writes.clear();
    sample.writes.reserve(spec.transactions.size());
    sample.total_bytes = 0;
    sample.id = spec.id;
    set_group_fields(group, sample);
    sample.client.ip = ip;
    sample.client.hosting_provider = hosting;
    sample.version = spec.version;
    sample.endpoint = spec.endpoint;
    sample.established_at = start;
    sample.route_index = route_index;
    sample.num_transactions = static_cast<int>(spec.transactions.size());
  }

  void add_write(const ResponseWrite& w) {
    sample.writes.push_back(w);
    sample.total_bytes += w.bytes;
  }

  void finish_session(Duration duration, Duration busy, Duration min_rtt) {
    sample.duration = duration;
    sample.busy_time = busy;
    sample.min_rtt = min_rtt;
  }
};

/// Emitter appending one row to a columnar SessionBatch.
struct BatchEmitter {
  SessionBatch& batch;

  void begin_session(const UserGroupProfile&, const SessionSpec& spec, int route_index,
                     SimTime start, std::uint32_t ip, bool hosting) {
    batch.begin_row(spec.id, start, route_index, ip, hosting, spec.version,
                    spec.endpoint, static_cast<int>(spec.transactions.size()));
  }

  void add_write(const ResponseWrite& w) { batch.add_write(w); }

  void finish_session(Duration duration, Duration busy, Duration min_rtt) {
    batch.finish_row(duration, busy, min_rtt);
  }
};

}  // namespace

void set_group_fields(const UserGroupProfile& group, SessionSample& sample) {
  sample.pop = group.key.pop;
  sample.client.bgp_prefix = group.key.prefix;
  sample.client.asn = group.asn;
  sample.client.country = group.key.country;
  sample.client.continent = group.continent;
}

DatasetGenerator::DatasetGenerator(const World& world, DatasetConfig config)
    : world_(world), config_(config), traffic_(config.seed), sampler_(config.sampler) {}

SessionSample DatasetGenerator::run_session(const UserGroupProfile& group,
                                            const SessionSpec& spec, int route_index,
                                            SimTime start, Rng& rng) const {
  SessionSample sample;
  run_session_into(group, spec, route_index, start, rng, sample);
  return sample;
}

void DatasetGenerator::run_session_into(const UserGroupProfile& group,
                                        const SessionSpec& spec, int route_index,
                                        SimTime start, Rng& rng,
                                        SessionSample& sample) const {
  SampleEmitter emit{sample};
  run_session_emit(group, spec, route_index, start, rng, emit);
}

template <typename Emitter>
void DatasetGenerator::run_session_emit(const UserGroupProfile& group,
                                        const SessionSpec& spec, int route_index,
                                        SimTime start, Rng& rng, Emitter& emit) const {
  // Draw order below is calibrated state (see CLAUDE.md): ip, hosting flag,
  // client rate, bufferbloat, connection seed, then the per-group path and
  // fluid-model draws. One ResponseWrite is emitted per transaction.
  const std::uint32_t ip =
      group.key.prefix.addr + static_cast<std::uint32_t>(rng.uniform_int(1, 1000));
  const bool hosting = rng.bernoulli(config_.hosting_fraction);
  emit.begin_session(group, spec, route_index, start, ip, hosting);

  const BitsPerSecond client_rate = draw_client_rate(group, rng);
  // Bufferbloated access links inflate every RTT the session sees (§3.3).
  const Duration bloat = rng.bernoulli(config_.bufferbloat_fraction)
                             ? rng.uniform(0.3, 2.0)
                             : 0.0;
  FluidTcpConnection conn({}, rng());

  Duration min_rtt = std::numeric_limits<Duration>::infinity();
  Duration busy = 0;
  SimTime clock = 0;  // session-relative time of the last response's final ACK

  // Group transactions: a transaction joins the open group if it arrives
  // before the previous response finished (HTTP/2 multiplexing / HTTP/1.1
  // socket queueing) or within a negligible gap (back-to-back writes).
  std::size_t i = 0;
  while (i < spec.transactions.size()) {
    TransferGroup g{i, i, spec.transactions[i].response_bytes, false};
    const SimTime group_start = std::max<SimTime>(spec.transactions[i].at, clock);

    // Path conditions at the moment this transfer begins.
    PathConditions path =
        path_conditions(group, route_index, start + group_start, client_rate);
    path.min_rtt += bloat;

    // Tentatively extend the group. Joins are decided against the finish
    // time of the group transferred so far; candidates run against a trial
    // cache (connection state untouched until commit) that replays only the
    // size-dependent tail of the simulation, so growing a k-member group
    // costs the shared slow-start prefix once instead of k times.
    FluidTrialCache trial;
    FluidTransfer transfer =
        conn.transfer_candidate(g.bytes, start + group_start, path, trial);
    while (g.last + 1 < spec.transactions.size()) {
      const auto& next = spec.transactions[g.last + 1];
      const SimTime finish = group_start + transfer.full_duration;
      const bool overlaps = next.at < finish;
      const bool back_to_back = next.at - finish < 0.005;
      if (!overlaps && !back_to_back) break;
      g.last += 1;
      g.bytes += next.response_bytes;
      g.overlapped = g.overlapped || overlaps;
      transfer = conn.transfer_candidate(g.bytes, start + group_start, path, trial);
    }
    conn.commit(trial);

    min_rtt = std::min(min_rtt, transfer.observed_rtt);
    busy += transfer.full_duration;

    // Emit one ResponseWrite per member transaction; the sampler-side
    // coalescer will re-merge them exactly as §3.2.5 prescribes.
    const std::size_t members = g.last - g.first + 1;
    const Duration nic_span = transfer.adjusted_duration * 0.5;  // writes early
    if (members == 1) {
      // Single-member group (the common case): frac_lo = 0/1 and
      // frac_hi = 1/1, so the interpolation below collapses exactly to the
      // group boundaries — same values, two divisions fewer.
      const auto& txn = spec.transactions[g.first];
      ResponseWrite w;
      w.bytes = txn.response_bytes;
      w.wnic = transfer.wnic;
      w.first_byte_nic = group_start;
      w.last_byte_nic = group_start + nic_span;
      w.second_last_ack = group_start + transfer.adjusted_duration;
      w.last_ack = group_start + transfer.full_duration;
      w.last_packet_bytes = transfer.last_packet_bytes;
      emit.add_write(w);

      clock = group_start + transfer.full_duration;
      i = g.last + 1;
      continue;
    }
    for (std::size_t m = 0; m < members; ++m) {
      const auto& txn = spec.transactions[g.first + m];
      ResponseWrite w;
      w.bytes = txn.response_bytes;
      w.wnic = transfer.wnic;
      const double frac_lo = static_cast<double>(m) / static_cast<double>(members);
      const double frac_hi = static_cast<double>(m + 1) / static_cast<double>(members);
      w.first_byte_nic = group_start + frac_lo * nic_span;
      w.last_byte_nic = group_start + frac_hi * nic_span;
      w.second_last_ack = group_start + transfer.adjusted_duration;
      w.last_ack = group_start + transfer.full_duration;
      w.last_packet_bytes =
          (m + 1 == members) ? transfer.last_packet_bytes
                             : std::min<Bytes>(txn.response_bytes, 1440);
      if (g.overlapped && members > 1 && m > 0) {
        const bool high_priority = spec.transactions[g.first + m].priority <
                                   spec.transactions[g.first + m - 1].priority;
        w.preempted = spec.version == HttpVersion::kHttp2 && high_priority;
        w.multiplexed = !w.preempted && spec.version == HttpVersion::kHttp2;
      }
      emit.add_write(w);
    }

    clock = group_start + transfer.full_duration;
    i = g.last + 1;
  }

  emit.finish_session(std::max(spec.duration, clock), busy,
                      std::isfinite(min_rtt) ? min_rtt : 0);
}

void DatasetGenerator::generate_group(const UserGroupProfile& group,
                                      const SessionSink& sink) const {
  // Deterministic per-group stream regardless of group order or which
  // shard/thread of the runtime processes this group (same bits as the
  // pre-runtime derivation; world calibration depends on it).
  Rng rng = entity_stream(config_.seed,
                          hash_mix(group.key.prefix.addr) ^
                              (static_cast<std::uint64_t>(group.key.pop.value) << 32));
  std::uint64_t session_seq =
      static_cast<std::uint64_t>(group.key.prefix.addr) << 20;

  const int total_windows = config_.days * 96;
  const int num_routes = static_cast<int>(group.routes.size());
  // Session scratch reused across the whole group: spec.transactions and
  // sample.writes keep their capacity, so session generation is
  // allocation-free at steady state.
  SessionSpec spec;
  SessionSample sample;
  for (int w = 0; w < total_windows; ++w) {
    // Diurnal traffic volume: more sessions at local evening peak.
    const SimTime window_start = w * kWindowLength;
    const double peak_boost = in_peak_hours(group, window_start + kWindowLength / 2)
                                  ? 1.5
                                  : 1.0;
    const int sessions =
        poisson(rng, group.sessions_per_window * config_.session_scale * peak_boost);
    for (int s = 0; s < sessions; ++s) {
      const SessionId id{session_seq++};
      const SimTime start = window_start + rng.uniform(0.0, kWindowLength);
      traffic_.make_session_into(id, rng, spec);
      const int route = sampler_.choose_route(id, num_routes);
      run_session_into(group, spec, route, start, rng, sample);
      sink(sample);
    }
  }
}

void DatasetGenerator::generate_group_batched(const UserGroupProfile& group,
                                              SessionBatch& batch,
                                              const WindowBatchSink& sink) const {
  // Mirrors generate_group draw-for-draw: same per-group stream seed, same
  // poisson/start/make_session draws per window, so either path can consume
  // the group and produce bit-identical values.
  Rng rng = entity_stream(config_.seed,
                          hash_mix(group.key.prefix.addr) ^
                              (static_cast<std::uint64_t>(group.key.pop.value) << 32));
  std::uint64_t session_seq =
      static_cast<std::uint64_t>(group.key.prefix.addr) << 20;

  const int total_windows = config_.days * 96;
  const int num_routes = static_cast<int>(group.routes.size());
  SessionSpec spec;
  BatchEmitter emit{batch};
  for (int w = 0; w < total_windows; ++w) {
    batch.clear();
    // Diurnal traffic volume: more sessions at local evening peak.
    const SimTime window_start = w * kWindowLength;
    const double peak_boost = in_peak_hours(group, window_start + kWindowLength / 2)
                                  ? 1.5
                                  : 1.0;
    const int sessions =
        poisson(rng, group.sessions_per_window * config_.session_scale * peak_boost);
    for (int s = 0; s < sessions; ++s) {
      const SessionId id{session_seq++};
      const SimTime start = window_start + rng.uniform(0.0, kWindowLength);
      traffic_.make_session_into(id, rng, spec);
      const int route = sampler_.choose_route(id, num_routes);
      run_session_emit(group, spec, route, start, rng, emit);
    }
    if (!batch.empty()) sink(w, batch);
  }
}

void DatasetGenerator::generate(const SessionSink& sink) const {
  for (const auto& group : world_.groups) generate_group(group, sink);
}

}  // namespace fbedge
