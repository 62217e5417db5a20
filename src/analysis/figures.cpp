#include "analysis/figures.h"

namespace fbedge {

TrafficCharacterization characterize_traffic(const World& world,
                                             const DatasetConfig& config) {
  TrafficCharacterization out;
  DatasetGenerator generator(world, config);
  generator.generate([&](const SessionSample& s) {
    if (!SessionSampler::keep_for_analysis(s.client)) return;
    ++out.sessions;
    const bool h2 = s.version == HttpVersion::kHttp2;

    out.duration_all.add(s.duration);
    (h2 ? out.duration_h2 : out.duration_h1).add(s.duration);

    const double busy_pct = 100.0 * std::clamp(s.busy_time / s.duration, 0.0, 1.0);
    out.busy_all.add(busy_pct);
    (h2 ? out.busy_h2 : out.busy_h1).add(busy_pct);

    if (s.total_bytes > 0) out.session_bytes.add(static_cast<double>(s.total_bytes));
    for (const auto& w : s.writes) {
      out.response_bytes.add(static_cast<double>(w.bytes));
      if (s.endpoint == EndpointClass::kMedia) {
        out.media_response_bytes.add(static_cast<double>(w.bytes));
      }
    }

    out.txns_all.add(s.num_transactions);
    (h2 ? out.txns_h2 : out.txns_h1).add(s.num_transactions);

    out.traffic_total += s.total_bytes;
    if (s.num_transactions >= 50) out.traffic_sessions_50plus += s.total_bytes;
  });
  return out;
}

void GlobalPerformance::merge(const GlobalPerformance& other) {
  minrtt_all.merge(other.minrtt_all);
  hdratio_all.merge(other.hdratio_all);
  hdratio_naive_all.merge(other.hdratio_naive_all);
  for (std::size_t c = 0; c < minrtt_continent.size(); ++c) {
    minrtt_continent[c].merge(other.minrtt_continent[c]);
    hdratio_continent[c].merge(other.hdratio_continent[c]);
  }
  for (std::size_t b = 0; b < hdratio_by_rtt.size(); ++b) {
    hdratio_by_rtt[b].merge(other.hdratio_by_rtt[b]);
  }
  sessions_total += other.sessions_total;
  sessions_hd_testable += other.sessions_hd_testable;
  filtered_hosting += other.filtered_hosting;
}

namespace {

/// Per-worker arenas for the batched fig6 sweep (see IngestScratch in
/// edge_analysis.cpp for the reuse/determinism contract).
struct PerfScratch {
  SessionBatch batch;
  CoalescedBatch coalesced;
  std::vector<SessionHd> hd;
  std::vector<std::uint8_t> skip;
};

}  // namespace

GlobalPerformance measure_global_performance(const World& world,
                                             const DatasetConfig& config,
                                             GoodputConfig goodput,
                                             const RuntimeOptions& runtime,
                                             RunStats* stats) {
  // The generator is immutable after construction; every shard shares it
  // and draws from per-group Rng streams (util/rng.h entity_stream).
  DatasetGenerator generator(world, config);
  const std::vector<GlobalPerformance> partials = parallel_map_scratch<PerfScratch>(
      world.groups.size(), runtime,
      [&](PerfScratch& scratch, std::size_t g) {
        const UserGroupProfile& group = world.groups[g];
        GlobalPerformance part;
        const int continent = static_cast<int>(group.continent);
        generator.generate_group_batched(
            group, scratch.batch, [&](int, const SessionBatch& b) {
              const std::size_t rows = b.size();
              // §4 uses measurements from the policy-preferred route only;
              // hosting rows fall to the §2.2.4 filter. Neither needs the
              // goodput work, so both are masked out before coalescing.
              scratch.skip.resize(rows);
              for (std::size_t i = 0; i < rows; ++i) {
                scratch.skip[i] =
                    (b.hosting[i] != 0 || b.route_index[i] != 0) ? 1 : 0;
              }
              coalesce_batch(b, scratch.skip.data(), scratch.coalesced);
              scratch.hd.resize(rows);
              evaluate_hd_batch(scratch.coalesced.txns.data(),
                                scratch.coalesced.offset.data(),
                                scratch.coalesced.count.data(), rows,
                                scratch.hd.data(), goodput);
              for (std::size_t i = 0; i < rows; ++i) {
                if (b.hosting[i] != 0) {
                  ++part.filtered_hosting;
                  continue;
                }
                if (b.route_index[i] != 0) continue;
                ++part.sessions_total;

                const Duration min_rtt = b.min_rtt[i];
                part.minrtt_all.add(min_rtt);
                part.minrtt_continent[static_cast<std::size_t>(continent)].add(
                    min_rtt);

                const SessionHd& hd = scratch.hd[i];
                if (const auto hdratio = hd.hdratio()) {
                  ++part.sessions_hd_testable;
                  part.hdratio_all.add(*hdratio);
                  part.hdratio_continent[static_cast<std::size_t>(continent)].add(
                      *hdratio);
                  part.hdratio_by_rtt[static_cast<std::size_t>(
                                          GlobalPerformance::rtt_bucket(min_rtt))]
                      .add(*hdratio);
                  if (const auto naive = hd.hdratio_naive()) {
                    part.hdratio_naive_all.add(*naive);
                  }
                }
              }
            });
        return part;
      },
      stats);
  GlobalPerformance out;
  for (const GlobalPerformance& part : partials) out.merge(part);  // group-id order
  return out;
}

}  // namespace fbedge
