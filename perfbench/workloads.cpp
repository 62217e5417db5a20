#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "agg/degradation.h"
#include "agg/opportunity.h"
#include "agg/series_io.h"
#include "agg/window_verdict.h"
#include "analysis/edge_analysis.h"
#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "analysis/sweep.h"
#include "faultsim/fault_injector.h"
#include "goodput/hdratio.h"
#include "sampler/session_batch.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stream/monitor_pipeline.h"
#include "stream/window_machine.h"
#include "util/binio.h"
#include "workload/generator.h"
#include "workload/world.h"

namespace perfbench {

using namespace fbedge;
namespace fs = std::filesystem;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kWorldSeed = 2019;
/// The smallest size whose world has a remote-served group (an African
/// group served from EU-pop1), which a cable-cut pack needs to touch.
constexpr int kGroupsPerContinent = 4;

/// The world (PoPs, groups, routes, episodes) is part of the workload's
/// definition and always built from kWorldSeed; --seed drives only the
/// sampled sessions. A per-seed world would change the amount of work per
/// call from seed to seed, and the scenario packs name PoPs, ASes and
/// countries of this world.
WorldConfig world_config(const WorkloadConfig& c) {
  WorldConfig w;
  w.seed = kWorldSeed;
  w.days = c.days;
  w.groups_per_continent = kGroupsPerContinent;
  return w;
}

DatasetConfig dataset_config(const WorkloadConfig& c) {
  DatasetConfig d;
  d.seed = c.seed;
  d.days = c.days;
  d.session_scale = 1.0;
  return d;
}

void hash_faults(Fnv64& h, const FaultCounters& c) {
  for (const std::uint64_t v :
       {c.truncated_records, c.corrupt_records, c.rejected_records,
        c.duplicated_samples, c.skewed_samples, c.thinned_groups,
        c.thinned_sessions, c.pop_outage_groups, c.dropped_windows,
        c.task_aborts, c.task_retries, c.lost_groups,
        c.scenario_drained_groups, c.scenario_depref_groups,
        c.scenario_flash_groups, c.scenario_cable_cut_groups,
        c.scenario_groups_reused, c.scenario_groups_recomputed}) {
    h.u64(v);
  }
}

/// FNV-1a over an edge result's headline fields, CDF sizes, every Table 1
/// cell, every Table 2 row and the fault counters.
std::uint64_t edge_digest(const EdgeAnalysisResult& r) {
  Fnv64 h;
  h.i64(r.groups_analyzed);
  h.u64(r.sessions_analyzed);
  for (const double v :
       {r.total_traffic, r.degr_valid_traffic_rtt, r.degr_valid_traffic_hd,
        r.opp_valid_traffic_rtt, r.opp_valid_traffic_hd, r.rtt_within_3ms,
        r.hd_within_0025, r.rtt_improvable_5ms, r.hd_improvable_005}) {
    h.f64(v);
  }
  for (const WeightedCdf* cdf :
       {&r.degr_rtt, &r.degr_hd, &r.opp_rtt, &r.opp_hd,
        &r.fig10_peer_vs_transit, &r.fig10_transit_vs_transit,
        &r.fig10_private_vs_public}) {
    h.u64(cdf->size());
  }
  for (const auto& [key, cell] : r.table1) {
    const auto& [kind, threshold, cls, continent] = key;
    h.u8(static_cast<std::uint8_t>(kind));
    h.i64(threshold);
    h.u8(static_cast<std::uint8_t>(cls));
    h.i64(continent);
    h.f64(cell.group_traffic);
    h.f64(cell.event_traffic);
  }
  for (const auto* rows : {&r.table2_rtt, &r.table2_hd}) {
    for (const auto& [pair, row] : *rows) {
      h.u8(static_cast<std::uint8_t>(pair.first));
      h.u8(static_cast<std::uint8_t>(pair.second));
      h.f64(row.absolute);
      h.f64(row.longer);
      h.f64(row.prepended);
    }
  }
  hash_faults(h, r.faults);
  return h.value();
}

CallResult edge_call_result(const EdgeAnalysisResult& r, std::size_t groups) {
  CallResult c;
  c.digests = {edge_digest(r)};
  c.sessions = r.sessions_analyzed;
  c.groups = groups;
  c.lost_groups = r.faults.lost_groups;
  return c;
}

/// Re-runs the per-group agg calls the reduce makes inside its pool tasks
/// (load, degradation, opportunity, save) on the calling thread, one span
/// each, so their self time is visible. Not part of the call: it runs
/// under its own "bench.probe" root.
void probe_series(Tracer& tr, const std::vector<GroupBlobRef>& blobs,
                  Metrics& layer) {
  auto root = tr.span("bench.probe");
  GroupSeries series;
  RouteAggPool pool;
  DegradationScratch degr_scratch;
  DegradationResult degr;
  std::vector<OpportunityWindow> opp;
  ByteWriter writer;
  const ComparisonConfig comparison;
  double bytes = 0;
  for (std::size_t g = 0; g < blobs.size(); ++g) {
    const auto group = static_cast<std::int32_t>(g);
    {
      auto s = tr.span("agg.series_load", group);
      ByteReader r(blobs[g].data, blobs[g].size);
      load_group_series(r, series, &pool);
    }
    {
      auto s = tr.span("agg.degradation", group);
      analyze_degradation_into(series, comparison, degr_scratch, degr);
    }
    {
      auto s = tr.span("agg.opportunity", group);
      analyze_opportunity_into(series, comparison, opp);
    }
    {
      auto s = tr.span("agg.series_save", group);
      writer.clear();
      save_group_series(series, writer);
    }
    bytes += static_cast<double>(blobs[g].size);
  }
  layer["agg.series_mb"] = bytes / kMiB;
}

void add_runtime_counters(const RunStats& stats, Metrics& layer) {
  layer["runtime.utilization"] = stats.utilization();
  layer["runtime.steals"] = static_cast<double>(stats.steals);
  layer["runtime.alloc_count"] = static_cast<double>(stats.alloc_count);
  layer["runtime.alloc_mb"] = static_cast<double>(stats.alloc_bytes) / kMiB;
}

std::string counters_line(const FaultCounters& c) {
  std::ostringstream o;
  o << "truncated=" << c.truncated_records << " corrupt=" << c.corrupt_records
    << " rejected=" << c.rejected_records << " duplicated=" << c.duplicated_samples
    << " skewed=" << c.skewed_samples << " task_aborts=" << c.task_aborts
    << " task_retries=" << c.task_retries << " lost_groups=" << c.lost_groups;
  return o.str();
}

// ---------------------------------------------------------------------------

class MonitorStream final : public Workload {
 public:
  explicit MonitorStream(WorkloadConfig config)
      : config_(std::move(config)), dataset_(dataset_config(config_)) {
    options_.allowed_lateness_windows = 0;
    options_.max_batch_rows = 256;
  }

  void setup() override {
    world_ = std::make_unique<World>(build_world(world_config(config_)));
  }

  CallResult call() override {
    const MonitorResult r =
        run_stream_monitor(*world_, dataset_, MonitorMode::kStream, options_,
                           RuntimeOptions{config_.threads});
    CallResult c;
    c.digests = {r.total.verdict_hash, r.total.rows, r.total.windows};
    c.sessions = r.total.rows;
    c.groups = world_->groups.size();
    return c;
  }

  // run_stream_monitor for one worker, rebuilt stage by stage: the same
  // generate -> coalesce -> HD -> compact -> micro-batch -> window machine
  // -> verdict sequence stream/stream_source.cpp and
  // stream/monitor_pipeline.cpp run on a clean (fault-free) stream.
  CallResult traced_call(Tracer& tr, Metrics& layer) override {
    auto root = tr.span("bench.call");
    const DatasetGenerator generator(*world_, dataset_);
    RollingBaselineConfig baseline_config = options_.baseline;
    baseline_config.min_samples = options_.comparison.min_samples;
    SessionBatch batch;
    CoalescedBatch coalesced;
    std::vector<SessionHd> hd;
    std::vector<StreamRow> rows;
    WindowMachine machine;
    WindowVerdict verdict;
    Fnv64 total_hash;
    std::uint64_t total_rows = 0, total_windows = 0, sessions = 0, hd_testable = 0,
                  coalesced_writes = 0, ineligible = 0,
                  deliveries = 0, sealed = 0, open_peak = 0, late_rows = 0;
    const auto chunk = static_cast<std::size_t>(std::max(0, options_.max_batch_rows));

    for (std::size_t g = 0; g < world_->groups.size(); ++g) {
      const auto gid = static_cast<std::int32_t>(g);
      const UserGroupProfile& group = world_->groups[g];
      RollingBaseline baseline(baseline_config);
      Fnv64 hash;
      machine.start_group(options_.allowed_lateness_windows,
                          [&](int window, WindowAgg& agg) {
                            auto s = tr.span("agg.verdict", gid);
                            evaluate_window_verdict(window, agg, baseline,
                                                    options_.comparison, verdict);
                            hash_window_verdict(verdict, hash);
                            ++total_windows;
                          });
      {
        auto gen_span = tr.span("workload.generate", gid);
        generator.generate_group_batched(
            group, batch, [&](int window, const SessionBatch& b) {
              auto source = tr.span("stream.source", gid);
              const std::size_t n = b.size();
              sessions += n;
              {
                auto s = tr.span("sampler.coalesce", gid);
                coalesce_batch(b, b.hosting.data(), coalesced);
              }
              coalesced_writes += static_cast<std::uint64_t>(coalesced.coalesced_writes);
              ineligible += static_cast<std::uint64_t>(coalesced.ineligible_groups);
              {
                auto s = tr.span("goodput.hd", gid);
                hd.resize(n);
                evaluate_hd_batch(coalesced.txns.data(), coalesced.offset.data(),
                                  coalesced.count.data(), n, hd.data(),
                                  options_.goodput);
              }
              rows.clear();
              for (std::size_t i = 0; i < n; ++i) {
                if (b.hosting[i] != 0) continue;
                StreamRow row;
                row.at = b.established_at[i];
                row.route = b.route_index[i];
                row.min_rtt = b.min_rtt[i];
                const std::optional<double> v = hd[i].hdratio();
                row.has_hd = v.has_value() ? 1 : 0;
                row.hd_value = v.value_or(0.0);
                row.bytes = b.total_bytes[i];
                rows.push_back(row);
                hd_testable += row.has_hd;
              }
              total_rows += rows.size();
              // A window whose rows were all filtered still delivers once:
              // the watermark advances on event time, not on data.
              const std::size_t total = rows.size();
              const std::size_t step = chunk > 0 ? chunk : total;
              std::size_t begin = 0;
              do {
                const std::size_t count = step > 0 ? std::min(step, total - begin) : total;
                auto s = tr.span("stream.deliver", gid);
                machine.on_delivery(window, rows.data() + begin, count);
                ++deliveries;
                begin += count;
              } while (begin < total);
            });
      }
      {
        auto s = tr.span("stream.deliver", gid);
        machine.flush();
      }
      total_hash.u64(hash.value());
      sealed += machine.sealed_windows();
      open_peak = std::max(open_peak, machine.open_windows_peak());
      late_rows += machine.late_rows();
    }

    layer["workload.sessions"] = static_cast<double>(sessions);
    layer["sampler.coalesced_writes"] = static_cast<double>(coalesced_writes);
    layer["sampler.ineligible_groups"] = static_cast<double>(ineligible);
    layer["goodput.hd_rows"] = static_cast<double>(total_rows);
    layer["goodput.hd_testable_frac"] =
        total_rows > 0 ? static_cast<double>(hd_testable) / static_cast<double>(total_rows)
                       : 0.0;
    layer["stream.deliveries"] = static_cast<double>(deliveries);
    layer["stream.windows_sealed"] = static_cast<double>(sealed);
    layer["stream.open_windows_peak"] = static_cast<double>(open_peak);
    layer["stream.late_rows"] = static_cast<double>(late_rows);

    CallResult c;
    c.digests = {total_hash.value(), total_rows, total_windows};
    c.sessions = total_rows;
    c.groups = world_->groups.size();
    return c;
  }

  std::string describe(const CallResult& r) const override {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "verdict_hash=%016llx rows=%llu windows=%llu",
                  static_cast<unsigned long long>(r.digests.at(0)),
                  static_cast<unsigned long long>(r.digests.at(1)),
                  static_cast<unsigned long long>(r.digests.at(2)));
    return buf;
  }

 private:
  WorkloadConfig config_;
  DatasetConfig dataset_;
  StreamMonitorOptions options_;
  std::unique_ptr<World> world_;
};

// ---------------------------------------------------------------------------

class EdgeWarm final : public Workload {
 public:
  explicit EdgeWarm(WorkloadConfig config)
      : config_(std::move(config)), dataset_(dataset_config(config_)) {
    cache_.dir = (fs::path(config_.scratch_dir) / "edge_warm-cache").string();
  }

  // World build plus one cold, cache-enabled run that writes the artifact
  // every call then reads.
  void setup() override {
    std::error_code ec;
    fs::remove_all(cache_.dir, ec);
    world_ = std::make_unique<World>(build_world(world_config(config_)));
    run_edge_analysis(*world_, dataset_, {}, {}, {}, runtime(), nullptr, {}, cache_);
  }

  CallResult call() override {
    RunStats stats;
    const EdgeAnalysisResult r = run_edge_analysis(*world_, dataset_, {}, {}, {},
                                                   runtime(), &stats, {}, cache_);
    CallResult c = edge_call_result(r, world_->groups.size());
    if (stats.cache_hits != world_->groups.size()) {
      c.error = "not served from the warm artifact";
    }
    return c;
  }

  // run_edge_analysis's warm path: key the world, read the artifact, one
  // EdgeReducer pass over every group from its blob, normalize.
  CallResult traced_call(Tracer& tr, Metrics& layer) override {
    const std::size_t n = world_->groups.size();
    RunStats stats;
    IngestArtifact artifact;
    EdgeAnalysisResult r;
    std::uint64_t blob_groups = 0;
    {
      auto root = tr.span("bench.call");
      std::uint64_t key = 0;
      std::string path;
      {
        auto s = tr.span("analysis.cache_key");
        key = ingest_cache_key(*world_, dataset_, GoodputConfig{});
        path = ingest_artifact_path(cache_.dir, key);
      }
      bool warm = false;
      {
        auto s = tr.span("analysis.artifact_read");
        warm = read_ingest_artifact(path, key, n, artifact);
      }
      EdgeReducer reducer(*world_, dataset_, AnalysisThresholds{}, ComparisonConfig{},
                          GoodputConfig{});
      EdgeReducer::BlobFn blob_fn;
      if (warm) {
        blob_fn = [&artifact](std::size_t g) {
          const auto [offset, length] = artifact.blobs[g];
          return GroupBlobRef{artifact.bytes.data() + offset, length};
        };
      }
      {
        auto s = tr.span("analysis.reduce");
        reducer.reduce_range(ShardRange{0, n}, blob_fn, runtime(), &stats);
      }
      blob_groups = reducer.blob_groups();
      auto s = tr.span("analysis.finish");
      r = reducer.finish();
    }
    layer["analysis.artifact_mb"] = static_cast<double>(artifact.bytes.size()) / kMiB;
    layer["analysis.blob_hit_frac"] =
        n > 0 ? static_cast<double>(blob_groups) / static_cast<double>(n) : 0.0;
    add_runtime_counters(stats, layer);
    CallResult c = edge_call_result(r, n);
    if (blob_groups != n) c.error = "not served from the warm artifact";
    std::vector<GroupBlobRef> blobs;
    for (const auto& [offset, length] : artifact.blobs) {
      blobs.push_back(GroupBlobRef{artifact.bytes.data() + offset, length});
    }
    probe_series(tr, blobs, layer);
    return c;
  }

  std::string describe(const CallResult& r) const override {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "edge_digest=%016llx",
                  static_cast<unsigned long long>(r.digests.at(0)));
    return buf;
  }

 private:
  RuntimeOptions runtime() const { return RuntimeOptions{config_.threads}; }

  WorkloadConfig config_;
  DatasetConfig dataset_;
  IngestCacheOptions cache_;
  std::unique_ptr<World> world_;
};

// ---------------------------------------------------------------------------

class WhatifSweep final : public Workload {
 public:
  explicit WhatifSweep(WorkloadConfig config)
      : config_(std::move(config)), dataset_(dataset_config(config_)) {}

  // World build plus reading and parsing every pack. A pack that fails to
  // parse, or that affects no group (so the sweep would never re-ingest
  // under its delta kind), is an error every call reports.
  void setup() override {
    world_ = std::make_unique<World>(build_world(world_config(config_)));
    packs_.clear();
    pack_errors_.clear();
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(config_.packs_dir, ec)) {
      if (entry.path().extension() == ".conf") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::ifstream in(file);
      std::stringstream text;
      text << in.rdbuf();
      ScenarioParseResult parsed = parse_scenario(text.str());
      if (!parsed.ok) {
        pack_errors_ += file.filename().string() + ": " + parsed.error + "; ";
        continue;
      }
      if (affected_groups(*world_, parsed.pack).empty()) {
        pack_errors_ += file.filename().string() + ": affects no group; ";
      }
      packs_.push_back(std::move(parsed.pack));
    }
    if (files.empty()) pack_errors_ = "no .conf packs in " + config_.packs_dir;
  }

  CallResult call() override {
    const IngestCacheOptions cache = fresh_cache();
    const SweepOutcome out = run_scenario_sweep(*world_, dataset_, {}, {}, {}, packs_,
                                                runtime(), nullptr, {}, cache);
    return sweep_result(out.baseline, out.scenarios);
  }

  // run_scenario_sweep's cold path: baseline reduce saving every blob,
  // artifact write, then per pack apply + footprint + a splice reduce.
  CallResult traced_call(Tracer& tr, Metrics& layer) override {
    const IngestCacheOptions cache = fresh_cache();
    const std::size_t n = world_->groups.size();
    RunStats stats;
    EdgeAnalysisResult baseline;
    std::vector<SweepScenarioResult> scenarios;
    std::vector<std::string> blobs(n);
    std::uint64_t blob_groups = 0, reduced_groups = 0, recomputed = 0, reused = 0;
    {
      auto root = tr.span("bench.call");
      std::uint64_t key = 0;
      std::string path;
      {
        auto s = tr.span("analysis.cache_key");
        key = ingest_cache_key(*world_, dataset_, GoodputConfig{});
        path = ingest_artifact_path(cache.dir, key);
      }
      {
        // Always a miss: every call starts from an empty cache directory.
        auto s = tr.span("analysis.artifact_read");
        IngestArtifact artifact;
        read_ingest_artifact(path, key, n, artifact);
      }
      {
        EdgeReducer reducer(*world_, dataset_, AnalysisThresholds{}, ComparisonConfig{},
                            GoodputConfig{});
        const EdgeReducer::SaveFn save = [&blobs](std::size_t g, std::string&& blob) {
          blobs[g] = std::move(blob);
        };
        {
          auto s = tr.span("analysis.reduce");
          reducer.reduce_range(ShardRange{0, n}, nullptr, runtime(), &stats, &save);
        }
        blob_groups += reducer.blob_groups();
        reduced_groups += n;
        {
          auto s = tr.span("analysis.artifact_write");
          write_ingest_artifact(path, key, blobs);
        }
        auto s = tr.span("analysis.finish");
        baseline = reducer.finish();
      }
      std::vector<std::size_t> affected_index(n);
      for (const ScenarioPack& pack : packs_) {
        SweepScenarioResult scen;
        scen.pack = pack;
        FaultCounters applied;
        std::unique_ptr<World> perturbed;
        {
          auto s = tr.span("scenario.apply");
          perturbed = std::make_unique<World>(apply_scenario(*world_, pack, &applied));
        }
        {
          auto s = tr.span("scenario.footprint");
          scen.affected = affected_groups(*world_, pack);
        }
        affected_index.assign(n, static_cast<std::size_t>(-1));
        for (std::size_t i = 0; i < scen.affected.size(); ++i) {
          affected_index[scen.affected[i]] = i;
        }
        EdgeReducer reducer(*perturbed, dataset_, AnalysisThresholds{},
                            ComparisonConfig{}, GoodputConfig{});
        {
          auto s = tr.span("analysis.reduce");
          reducer.reduce_range(
              ShardRange{0, n},
              [&](std::size_t g) -> GroupBlobRef {
                if (affected_index[g] != static_cast<std::size_t>(-1)) return {};
                return GroupBlobRef{blobs[g].data(), blobs[g].size()};
              },
              runtime(), &stats, nullptr);
        }
        blob_groups += reducer.blob_groups();
        reduced_groups += n;
        {
          auto s = tr.span("analysis.finish");
          scen.result = reducer.finish();
        }
        const auto scen_recomputed = static_cast<std::uint64_t>(scen.affected.size());
        scen.result.faults.accumulate(applied);
        scen.result.faults.scenario_groups_reused = n - scen_recomputed;
        scen.result.faults.scenario_groups_recomputed = scen_recomputed;
        recomputed += scen_recomputed;
        reused += n - scen_recomputed;
        scenarios.push_back(std::move(scen));
      }
    }
    layer["scenario.groups_recomputed"] = static_cast<double>(recomputed);
    layer["scenario.reuse_frac"] =
        reused + recomputed > 0
            ? static_cast<double>(reused) / static_cast<double>(reused + recomputed)
            : 0.0;
    layer["analysis.blob_hit_frac"] =
        reduced_groups > 0
            ? static_cast<double>(blob_groups) / static_cast<double>(reduced_groups)
            : 0.0;
    add_runtime_counters(stats, layer);
    std::vector<GroupBlobRef> refs;
    for (const std::string& b : blobs) refs.push_back(GroupBlobRef{b.data(), b.size()});
    probe_series(tr, refs, layer);
    return sweep_result(baseline, scenarios);
  }

  std::string describe(const CallResult& r) const override {
    std::ostringstream o;
    o << "scenarios=" << packs_.size() << " digests=";
    char buf[20];
    for (std::size_t i = 0; i < r.digests.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%016llx", i ? "," : "",
                    static_cast<unsigned long long>(r.digests[i]));
      o << buf;
    }
    return o.str();
  }

 private:
  RuntimeOptions runtime() const { return RuntimeOptions{config_.threads}; }

  /// A new, empty cache directory: each call pays for the baseline ingest
  /// and the artifact write.
  IngestCacheOptions fresh_cache() {
    IngestCacheOptions cache;
    cache.dir = (fs::path(config_.scratch_dir) / "sweep-cache").string();
    std::error_code ec;
    fs::remove_all(cache.dir, ec);
    return cache;
  }

  CallResult sweep_result(const EdgeAnalysisResult& baseline,
                          const std::vector<SweepScenarioResult>& scenarios) const {
    const std::size_t n = world_->groups.size();
    CallResult c;
    c.digests.push_back(edge_digest(baseline));
    c.sessions = baseline.sessions_analyzed;
    c.lost_groups = baseline.faults.lost_groups;
    for (const SweepScenarioResult& s : scenarios) {
      c.digests.push_back(edge_digest(s.result));
      c.sessions += s.result.sessions_analyzed;
      c.lost_groups += s.result.faults.lost_groups;
    }
    c.groups = n * (1 + scenarios.size());
    if (!pack_errors_.empty()) c.error = pack_errors_;
    return c;
  }

  WorkloadConfig config_;
  DatasetConfig dataset_;
  std::unique_ptr<World> world_;
  std::vector<ScenarioPack> packs_;
  std::string pack_errors_;
};

// ---------------------------------------------------------------------------

class EdgeFaulted final : public Workload {
 public:
  /// Groups the faultsim probe replays through the scalar ingest path.
  static constexpr std::size_t kProbeGroups = 2;

  explicit EdgeFaulted(WorkloadConfig config)
      : config_(std::move(config)), dataset_(dataset_config(config_)) {
    plan_.seed = 11;
    plan_.truncate_rate = 0.01;
    plan_.corrupt_rate = 0.01;
    plan_.duplicate_rate = 0.01;
    plan_.skew_rate = 0.01;
    // At 0.05 no group of this world aborts; 0.15 aborts three, and each
    // retry succeeds.
    plan_.task_abort_rate = 0.15;
  }

  void setup() override {
    world_ = std::make_unique<World>(build_world(world_config(config_)));
  }

  CallResult call() override {
    const EdgeAnalysisResult r = run_edge_analysis(*world_, dataset_, {}, {}, {},
                                                   runtime(), nullptr, plan_);
    last_faults_ = r.faults;
    return checked_result(r);
  }

  // The faulted reduce (scalar ingest + SamplerFaultStage + failable
  // retry) has no public per-stage entry point, so the call is one span;
  // a probe then replays the first groups' scalar session stream through
  // SamplerFaultStage in 4096-record chunks to time the stage itself.
  CallResult traced_call(Tracer& tr, Metrics& layer) override {
    RunStats stats;
    EdgeAnalysisResult r;
    {
      auto root = tr.span("bench.call");
      auto s = tr.span("analysis.edge_call");
      r = run_edge_analysis(*world_, dataset_, {}, {}, {}, runtime(), &stats, plan_);
    }
    last_faults_ = r.faults;
    layer["faultsim.rejected_records"] = static_cast<double>(r.faults.rejected_records);
    layer["faultsim.task_retries"] = static_cast<double>(r.faults.task_retries);
    layer["faultsim.lost_groups"] = static_cast<double>(r.faults.lost_groups);
    add_runtime_counters(stats, layer);

    auto probe = tr.span("bench.probe");
    const DatasetGenerator generator(*world_, dataset_);
    std::vector<SessionSample> chunk(4096);
    std::uint64_t probed = 0;
    const std::size_t groups = std::min(kProbeGroups, world_->groups.size());
    for (std::size_t g = 0; g < groups; ++g) {
      const auto gid = static_cast<std::int32_t>(g);
      const UserGroupProfile& group = world_->groups[g];
      SamplerFaultStage stage(plan_, group.key);
      std::size_t fill = 0;
      const auto drain = [&] {
        auto s = tr.span("faultsim.stage", gid);
        for (std::size_t i = 0; i < fill; ++i) {
          stage.apply(chunk[i], [](const SessionSample&) {});
        }
        probed += fill;
        fill = 0;
      };
      auto s = tr.span("workload.generate", gid);
      generator.generate_group(group, [&](const SessionSample& sample) {
        chunk[fill++] = sample;
        if (fill == chunk.size()) drain();
      });
      drain();
    }
    layer["workload.sessions"] = static_cast<double>(probed);
    return checked_result(r);
  }

  std::string describe(const CallResult& r) const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "edge_digest=%016llx ",
                  static_cast<unsigned long long>(r.digests.at(0)));
    return buf + counters_line(last_faults_);
  }

 private:
  RuntimeOptions runtime() const { return RuntimeOptions{config_.threads}; }

  /// A call that retried no task did not reach the failable retry reduce.
  CallResult checked_result(const EdgeAnalysisResult& r) const {
    CallResult c = edge_call_result(r, world_->groups.size());
    if (r.faults.task_retries == 0) c.error = "no task was retried";
    return c;
  }

  WorkloadConfig config_;
  DatasetConfig dataset_;
  FaultPlan plan_;
  FaultCounters last_faults_;
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config) {
  if (config.name == "monitor_stream") return std::make_unique<MonitorStream>(config);
  if (config.name == "edge_warm") return std::make_unique<EdgeWarm>(config);
  if (config.name == "whatif_sweep") return std::make_unique<WhatifSweep>(config);
  if (config.name == "edge_faulted") return std::make_unique<EdgeFaulted>(config);
  return nullptr;
}

}  // namespace perfbench
