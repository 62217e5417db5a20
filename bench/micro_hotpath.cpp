// Micro-benchmarks for the per-session / per-window hot paths: t_model
// rate solving, t-digest add/merge, exact quantiles, window aggregation,
// and response coalescing. End-to-end bench walls (fig6, table1) mix all
// of these with generation cost; this binary tracks the constant factors
// individually so perf wins/regressions are attributable.
//
// Usage: micro_hotpath [--json PATH]   (other common flags are ignored)
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "agg/aggregation.h"
#include "agg/series_io.h"
#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "bench_common.h"
#include "goodput/hdratio.h"
#include "goodput/tmodel.h"
#include "sampler/coalescer.h"
#include "sampler/session_batch.h"
#include "stats/quantiles.h"
#include "stats/tdigest.h"
#include "util/rng.h"
#include "util/simd.h"

using namespace fbedge;

namespace {

// Sink defeating dead-code elimination without fencing the loop body.
volatile double g_sink = 0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `body(i)` for i in [0, iters) and returns nanoseconds per call.
template <typename F>
double time_per_op(int iters, F&& body) {
  const double t0 = now_seconds();
  for (int i = 0; i < iters; ++i) body(i);
  return (now_seconds() - t0) / static_cast<double>(iters) * 1e9;
}

/// Mixed realistic TxnTimings: sizes/windows/RTTs spanning the regimes the
/// pipeline sees (single-round small responses to multi-round transfers).
std::vector<TxnTiming> make_txns(std::size_t n) {
  Rng rng(4242);
  std::vector<TxnTiming> txns;
  txns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TxnTiming t;
    t.btotal = static_cast<Bytes>(std::exp(rng.uniform(std::log(2e3), std::log(2e7))));
    t.wnic = static_cast<Bytes>(1460 * rng.uniform_int(2, 40));
    t.min_rtt = rng.uniform(0.004, 0.25);
    // Place Ttotal around the model time at a plausible delivered rate so
    // the solver's search actually has to find an interior segment.
    const BitsPerSecond rate = std::exp(rng.uniform(std::log(2e5), std::log(2e8)));
    t.ttotal = t_model(t, rate) * rng.uniform(0.7, 1.5);
    txns.push_back(t);
  }
  return txns;
}

std::vector<ResponseWrite> make_writes(std::size_t n) {
  Rng rng(99);
  std::vector<ResponseWrite> writes;
  writes.reserve(n);
  SimTime t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ResponseWrite w;
    w.bytes = static_cast<Bytes>(rng.uniform_int(500, 60000));
    w.wnic = 14600;
    w.first_byte_nic = t;
    w.last_byte_nic = t + 0.002;
    w.second_last_ack = t + 0.030;
    w.last_ack = t + 0.034;
    w.last_packet_bytes = 1000;
    // Mix of back-to-back runs and spaced-out responses.
    t += rng.bernoulli(0.4) ? 0.00001 : 0.06;
    writes.push_back(w);
  }
  return writes;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig rc;
  bench::parse_common_args(argc, argv, rc, 0);

  // ---- t_model rate solving ----------------------------------------------
  const auto txns = make_txns(4096);
  const int solve_iters = 200000;
  const double closed_ns = time_per_op(solve_iters, [&](int i) {
    g_sink = estimate_delivery_rate(txns[static_cast<std::size_t>(i) % txns.size()]);
  });
  const double bisect_ns = time_per_op(20000, [&](int i) {
    g_sink =
        estimate_delivery_rate_bisect(txns[static_cast<std::size_t>(i) % txns.size()]);
  });

  // ---- t-digest ----------------------------------------------------------
  Rng rng(7);
  std::vector<double> values(200000);
  for (auto& v : values) v = rng.lognormal(-3.0, 0.8);
  TDigest digest(100);
  const double add_ns = time_per_op(static_cast<int>(values.size()), [&](int i) {
    digest.add(values[static_cast<std::size_t>(i)]);
  });
  g_sink = digest.quantile(0.5);

  std::vector<TDigest> parts;
  for (int p = 0; p < 64; ++p) {
    TDigest d(100);
    for (int i = 0; i < 10000; ++i) d.add(rng.lognormal(-3.0, 0.8));
    d.compress();
    parts.push_back(std::move(d));
  }
  TDigest merged(100);
  const double merge_ns = time_per_op(static_cast<int>(parts.size()), [&](int i) {
    merged.merge(parts[static_cast<std::size_t>(i)]);
  });
  g_sink = merged.quantile(0.9);

  // ---- exact quantile (selection-based) ----------------------------------
  std::vector<double> sample(100000);
  for (auto& v : sample) v = rng.uniform();
  const double quantile_ns = time_per_op(200, [&](int i) {
    g_sink = quantile(sample, i % 2 ? 0.5 : 0.95);
  });

  // ---- window aggregation add path ---------------------------------------
  GroupSeries series;
  const double agg_ns = time_per_op(400000, [&](int i) {
    const int w = (i / 500) % 960;  // in-order windows, 500 sessions each
    series.windows[w].route(i % 3).add_session(
        0.02 + 1e-7 * i, (i % 5) ? std::optional<double>(0.9) : std::nullopt, 20000);
  });

  // ---- batched HD evaluation ---------------------------------------------
  // Sessions-worth of pre-coalesced transactions in the flat (txns, offset,
  // count) layout the columnar pipeline produces; cost is reported per
  // session so it is directly comparable to the scalar evaluator loop.
  const std::size_t hd_rows = 4096;
  std::vector<std::uint32_t> hd_offsets(hd_rows);
  std::vector<std::uint32_t> hd_counts(hd_rows);
  for (std::size_t i = 0; i < hd_rows; ++i) {
    hd_counts[i] = static_cast<std::uint32_t>(1 + i % 5);
    hd_offsets[i] =
        static_cast<std::uint32_t>((i * 7) % (txns.size() - hd_counts[i]));
  }
  std::vector<SessionHd> hd_out(hd_rows);
  const double hd_batch_call_ns = time_per_op(100, [&](int) {
    evaluate_hd_batch(txns.data(), hd_offsets.data(), hd_counts.data(), hd_rows,
                      hd_out.data());
  });
  const double hd_batch_per_session_ns =
      hd_batch_call_ns / static_cast<double>(hd_rows);
  g_sink = static_cast<double>(hd_out[0].tested);

  // ---- SessionBatch row append -------------------------------------------
  // The generator-side cost of the columnar layout: one begin_row + four
  // add_write + finish_row per session, reusing the arena across windows.
  SessionBatch batch;
  const auto batch_writes = make_writes(4);
  const double batch_append_ns = time_per_op(400000, [&](int i) {
    if (batch.size() >= 4096) batch.clear();  // window boundary
    batch.begin_row(SessionId{static_cast<std::uint64_t>(i)},
                    /*at=*/0.001 * i, /*route=*/i % 3,
                    /*ip=*/0x0a000000u + static_cast<std::uint32_t>(i),
                    /*hosting_provider=*/false, HttpVersion::kHttp2,
                    EndpointClass::kDynamic, /*num_txns=*/4);
    for (const auto& w : batch_writes) batch.add_write(w);
    batch.finish_row(/*dur=*/1.0, /*busy=*/0.3, /*rtt=*/0.03);
  });
  g_sink = g_sink + static_cast<double>(batch.arena_bytes());

  // ---- GroupSeries serialization (ingest-artifact cache) ------------------
  // save/load of the window-aggregation series built above (~960 windows x 3
  // routes), i.e. one cache-artifact group blob round-trip.
  ByteWriter series_writer;
  const double series_save_ns = time_per_op(50, [&](int) {
    series_writer.clear();
    save_group_series(series, series_writer);
    g_sink = static_cast<double>(series_writer.size());
  });
  GroupSeries loaded_series;
  RouteAggPool load_pool;
  const double series_load_ns = time_per_op(50, [&](int) {
    ByteReader r(series_writer.data().data(), series_writer.size());
    load_group_series(r, loaded_series, &load_pool);
    g_sink = static_cast<double>(loaded_series.windows.size());
  });

  // ---- artifact reduce path (warm run_edge_analysis, shard coordinator) ---
  // The two per-group constants of a warm reduce: opening a 64-group
  // artifact (header, index, every blob's checksum) plus read(i) of every
  // blob (pread + checksum again), amortized over its groups; and analyzing
  // one group straight from its serialized blob then folding the partial
  // (EdgeReducer's whole per-group cost).
  char artifact_path[128];
  std::snprintf(artifact_path, sizeof(artifact_path),
                "/tmp/fbedge-micro-hotpath-%ld.fbecache",
                static_cast<long>(::getpid()));
  const std::size_t artifact_groups = 64;
  {
    const std::vector<std::string> blobs(artifact_groups, series_writer.data());
    write_ingest_artifact(artifact_path, 1234, blobs);
  }
  IngestArtifactReader micro_reader;
  std::string micro_blob;
  const double artifact_load_ns =
      time_per_op(20, [&](int) {
        micro_reader.open(artifact_path, 1234, artifact_groups);
        double bytes = 0;
        for (std::size_t g = 0; g < artifact_groups; ++g) {
          micro_reader.read(g, micro_blob);
          bytes += static_cast<double>(micro_blob.size());
        }
        g_sink = bytes;
      }) /
      static_cast<double>(artifact_groups);
  std::remove(artifact_path);

  WorldConfig reduce_wc;
  reduce_wc.seed = 2019;
  reduce_wc.groups_per_continent = 2;
  reduce_wc.days = 1;
  const World reduce_world = build_world(reduce_wc);
  DatasetConfig reduce_dc;
  reduce_dc.seed = 2019;
  reduce_dc.days = 1;
  reduce_dc.session_scale = 0.1;
  std::vector<std::string> group_blobs(reduce_world.groups.size());
  std::vector<std::size_t> reduce_groups(group_blobs.size());
  for (std::size_t g = 0; g < reduce_groups.size(); ++g) reduce_groups[g] = g;
  ingest_groups_to_blobs(
      reduce_world, reduce_dc, {}, reduce_groups, RuntimeOptions::sequential(),
      [&](std::size_t g, std::string&& blob) { group_blobs[g] = std::move(blob); });
  const double reduce_fold_ns =
      time_per_op(20, [&](int) {
        EdgeReducer reducer(reduce_world, reduce_dc, {}, {}, {});
        reducer.reduce_range(
            ShardRange{0, group_blobs.size()},
            [&](std::size_t g) {
              return GroupBlobRef{group_blobs[g].data(), group_blobs[g].size()};
            },
            RuntimeOptions::sequential());
        g_sink = static_cast<double>(reducer.finish().groups_analyzed);
      }) /
      static_cast<double>(group_blobs.size());

  // ---- response coalescing -----------------------------------------------
  const auto writes = make_writes(64);
  CoalescedSession scratch;
  const double coalesce_ns = time_per_op(100000, [&](int) {
    coalesce_session_into(writes, 0.040, scratch);
    g_sink = static_cast<double>(scratch.txns.size());
  });

  // ---- SIMD kernel variants ----------------------------------------------
  // The unsuffixed entries above follow runtime dispatch (FBEDGE_SIMD); the
  // _simd entries force the AVX2 path so the committed JSON always carries
  // an explicit vectorized number, falling back to scalar only when the
  // build or CPU lacks AVX2 (the values then simply repeat the scalar cost).
  const bool have_avx2 = simd::compiled_avx2() && simd::cpu_supports_avx2();
  const simd::Path dispatched = simd::active_path();
  simd::force_path(have_avx2 ? simd::Path::kAvx2 : simd::Path::kScalar);

  const double hd_batch_simd_call_ns = time_per_op(100, [&](int) {
    evaluate_hd_batch(txns.data(), hd_offsets.data(), hd_counts.data(), hd_rows,
                      hd_out.data());
  });
  const double hd_batch_simd_per_session_ns =
      hd_batch_simd_call_ns / static_cast<double>(hd_rows);
  g_sink = static_cast<double>(hd_out[0].tested);

  // Batched coalesce over 64 sessions of 64 writes each, reported per
  // session so it lines up with coalesce_session above.
  SessionBatch coalesce_batch_input;
  const std::size_t coalesce_rows = 64;
  for (std::size_t row = 0; row < coalesce_rows; ++row) {
    coalesce_batch_input.begin_row(
        SessionId{row}, /*at=*/0.001 * static_cast<double>(row), /*route=*/0,
        /*ip=*/0x0a000000u, /*hosting_provider=*/false, HttpVersion::kHttp2,
        EndpointClass::kDynamic, /*num_txns=*/4);
    for (const auto& w : writes) coalesce_batch_input.add_write(w);
    coalesce_batch_input.finish_row(/*dur=*/1.0, /*busy=*/0.3, /*rtt=*/0.040);
  }
  CoalescedBatch coalesced_out;
  const double coalesce_simd_ns =
      time_per_op(2000, [&](int) {
        coalesce_batch(coalesce_batch_input, nullptr, coalesced_out);
        g_sink = static_cast<double>(coalesced_out.txns.size());
      }) /
      static_cast<double>(coalesce_rows);

  TDigest simd_digest(100);
  const double tdigest_add_simd_ns =
      time_per_op(static_cast<int>(values.size()), [&](int i) {
        simd_digest.add(values[static_cast<std::size_t>(i)]);
      });
  g_sink = simd_digest.quantile(0.5);

  simd::force_path(dispatched);

  std::printf("micro_hotpath (ns/op)\n");
  std::printf("  tmodel_solve_closed   %10.1f\n", closed_ns);
  std::printf("  tmodel_solve_bisect   %10.1f  (legacy reference, %.1fx)\n",
              bisect_ns, bisect_ns / closed_ns);
  std::printf("  tdigest_add           %10.1f  (amortized compress)\n", add_ns);
  std::printf("  tdigest_merge         %10.1f  (per 10k-point digest)\n", merge_ns);
  std::printf("  quantile_exact        %10.1f  (100k doubles)\n", quantile_ns);
  std::printf("  agg_add_session       %10.1f\n", agg_ns);
  std::printf("  series_save           %10.1f  (960-window series)\n", series_save_ns);
  std::printf("  series_load           %10.1f  (960-window series)\n", series_load_ns);
  std::printf("  artifact_group_load   %10.1f  (64-group artifact, open + read)\n",
              artifact_load_ns);
  std::printf("  reduce_fold_per_group %10.1f  (blob -> analyze -> fold)\n",
              reduce_fold_ns);
  std::printf("  coalesce_session      %10.1f  (64 writes)\n", coalesce_ns);
  std::printf("  hd_batch_per_session  %10.1f  (4096-row batch)\n",
              hd_batch_per_session_ns);
  std::printf("  batch_append          %10.1f  (row + 4 writes)\n", batch_append_ns);
  std::printf("  hd_batch_simd         %10.1f  (forced %s)\n",
              hd_batch_simd_per_session_ns, have_avx2 ? "avx2" : "scalar");
  std::printf("  coalesce_simd         %10.1f  (batched, per 64-write session)\n",
              coalesce_simd_ns);
  std::printf("  tdigest_add_simd      %10.1f  (amortized compress)\n",
              tdigest_add_simd_ns);

  bench::JsonOutput json(rc.json_path);
  json.add("tmodel_solve_closed_ns", closed_ns);
  json.add("tmodel_solve_bisect_ns", bisect_ns);
  json.add("tdigest_add_ns", add_ns);
  json.add("tdigest_merge_ns", merge_ns);
  json.add("quantile_exact_ns", quantile_ns);
  json.add("agg_add_session_ns", agg_ns);
  json.add("series_save_ns", series_save_ns);
  json.add("series_load_ns", series_load_ns);
  json.add("artifact_group_load_ns", artifact_load_ns);
  json.add("reduce_fold_per_group_ns", reduce_fold_ns);
  json.add("coalesce_session_ns", coalesce_ns);
  json.add("hd_batch_per_session_ns", hd_batch_per_session_ns);
  json.add("batch_append_ns", batch_append_ns);
  json.add("hd_batch_simd_per_session_ns", hd_batch_simd_per_session_ns);
  json.add("coalesce_simd_ns", coalesce_simd_ns);
  json.add("tdigest_add_simd_ns", tdigest_add_simd_ns);
  json.add("runtime_simd_avx2", simd::avx2_active() ? 1 : 0);
  return json.write() ? 0 : 1;
}
