#include "stream/monitor_pipeline.h"

#include <algorithm>
#include <utility>

#include "runtime/alloc_counter.h"

namespace fbedge {

namespace {

/// Per-worker scratch: the source arenas, the window machine (whose
/// WindowMap spine and route-cell pool stay warm across every group the
/// worker processes), and the verdict-step state.
struct MonitorScratch {
  StreamSourceScratch source;
  WindowMachine machine;
  RollingBaseline baseline;
  /// The sealed window's route summaries.
  std::vector<CellSummary> routes;
  WindowVerdict verdict;
};

/// One group's contribution, produced on the pool and folded in group-id
/// order on the calling thread.
struct GroupPartial {
  GroupVerdictSummary summary;
  std::vector<WindowVerdict> verdicts;
  FaultCounters faults;
  std::uint64_t sealed{0};
  std::uint64_t watermark_advances{0};
  std::uint64_t open_windows_peak{0};
};

void fold_summary(GroupVerdictSummary& acc, const GroupVerdictSummary& g) {
  acc.windows += g.windows;
  acc.degraded_rtt += g.degraded_rtt;
  acc.degraded_hd += g.degraded_hd;
  acc.opp_rtt += g.opp_rtt;
  acc.opp_hd += g.opp_hd;
  acc.traffic += g.traffic;
  acc.degraded_traffic += g.degraded_traffic;
  acc.opportunity_traffic += g.opportunity_traffic;
  acc.rows += g.rows;
  acc.late_rows += g.late_rows;
}

}  // namespace

MonitorResult run_stream_monitor(const World& world, const DatasetConfig& config,
                                 MonitorMode mode,
                                 const StreamMonitorOptions& options,
                                 const RuntimeOptions& runtime, RunStats* stats,
                                 const FaultPlan& faults) {
  DatasetGenerator generator(world, config);
  RollingBaselineConfig baseline_config = options.baseline;
  baseline_config.min_samples = options.comparison.min_samples;
  // Batch mode IS the stream pipeline with an infinite lateness band: no
  // window seals before flush, so the machine materializes the whole
  // series and then seals it ascending — same rows, same order, same
  // verdicts; only the memory profile differs.
  const int lateness = mode == MonitorMode::kBatch
                           ? kStreamNeverSeal
                           : options.allowed_lateness_windows;
  const double z = confidence_z(options.comparison.alpha);

  auto partials = parallel_map_scratch<MonitorScratch>(
      world.groups.size(), runtime,
      [&](MonitorScratch& s, std::size_t g) {
        const UserGroupProfile& group = world.groups[g];
        GroupPartial part;
        s.baseline = RollingBaseline(baseline_config);
        Fnv64 hash;
        std::uint64_t seals = 0;
        const auto seal = [&](int window, WindowAgg& agg) {
          summarize_window(agg, z, s.routes);
          evaluate_window_verdict(window, s.routes, s.baseline, options.comparison,
                                  s.verdict);
          hash_window_verdict(s.verdict, hash);
          const WindowVerdict& v = s.verdict;
          GroupVerdictSummary& sum = part.summary;
          ++sum.windows;
          sum.traffic += static_cast<double>(agg.total_traffic());
          const bool d_rtt = v.degr.rtt.exceeds(options.policy.degradation_rtt);
          const bool d_hd = v.degr.hd.exceeds(options.policy.degradation_hd);
          if (d_rtt) ++sum.degraded_rtt;
          if (d_hd) ++sum.degraded_hd;
          if (d_rtt || d_hd) {
            sum.degraded_traffic += static_cast<double>(v.degr.traffic);
          }
          const bool o_rtt =
              v.has_opp && v.opp.rtt_opportunity(options.policy.opportunity_rtt);
          const bool o_hd =
              v.has_opp && v.opp.hd_opportunity(options.policy.opportunity_hd);
          if (o_rtt) ++sum.opp_rtt;
          if (o_hd) ++sum.opp_hd;
          if (o_rtt || o_hd) {
            sum.opportunity_traffic += static_cast<double>(v.opp.traffic);
          }
          if (options.collect_verdicts) part.verdicts.push_back(v);
          // Window seals are the stream's steady-state beat; feed the
          // sampled-RSS watermark here so the flat-memory claim is judged
          // on RSS *while windows churn*, not only at task boundaries.
          if ((++seals & 63u) == 0) rss_sample();
        };
        s.machine.start_group(lateness, seal);
        const StreamSourceTotals totals = replay_group_stream(
            generator, group, options.goodput, options.max_batch_rows, faults,
            part.faults, s.source,
            [&](int w, const StreamRow* rows, std::size_t n) {
              s.machine.on_delivery(w, rows, n);
            });
        s.machine.flush();
        part.summary.rows = totals.rows;
        part.summary.late_rows = s.machine.late_rows();
        part.summary.verdict_hash = hash.value();
        // Rows the machine refused because their window had already sealed
        // are the degraded artifact of injected transport lateness.
        part.faults.stream_dropped_rows += s.machine.late_rows();
        part.sealed = s.machine.sealed_windows();
        part.watermark_advances = s.machine.watermark_advances();
        part.open_windows_peak = s.machine.open_windows_peak();
        return part;
      },
      stats);

  MonitorResult out;
  out.groups.resize(partials.size());
  if (options.collect_verdicts) out.verdicts.resize(partials.size());
  Fnv64 total_hash;
  std::uint64_t sealed = 0;
  std::uint64_t advances = 0;
  std::uint64_t open_peak = 0;
  for (std::size_t g = 0; g < partials.size(); ++g) {
    GroupPartial& p = partials[g];
    out.groups[g] = p.summary;
    fold_summary(out.total, p.summary);
    total_hash.u64(p.summary.verdict_hash);
    out.faults.accumulate(p.faults);
    sealed += p.sealed;
    advances += p.watermark_advances;
    open_peak = std::max(open_peak, p.open_windows_peak);
    if (options.collect_verdicts) out.verdicts[g] = std::move(p.verdicts);
  }
  out.total.verdict_hash = total_hash.value();
  if (stats) {
    stats->stream_windows_sealed += sealed;
    stats->stream_watermark_advances += advances;
    stats->stream_open_windows_peak =
        std::max(stats->stream_open_windows_peak, open_peak);
    stats->faults.accumulate(out.faults);
  }
  return out;
}

}  // namespace fbedge
