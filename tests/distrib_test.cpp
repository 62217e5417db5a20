// Tests for the multi-process shard coordinator (src/distrib/): manifest
// framing/rejection, cross-process cache-write semantics, worker
// idempotence, and the headline guarantee — run_scale_analysis output is
// byte-identical to a single-process run_edge_analysis for any worker
// count, with every degradation (crashed worker, vandalized cache, absent
// artifacts) falling back to cold ingest instead of drifting or dying.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/edge_analysis.h"
#include "analysis/ingest_cache.h"
#include "distrib/coordinator.h"
#include "distrib/shard_manifest.h"
#include "distrib/subprocess.h"
#include "distrib/sweep_fleet.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "workload/world.h"

namespace fbedge {
namespace {

WorldConfig small_world() {
  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.days = 1;
  return wc;
}

DatasetConfig small_dataset() {
  DatasetConfig dc;
  dc.seed = 2019;
  dc.days = 1;
  dc.session_scale = 0.1;
  return dc;
}

/// Unique-per-process scratch dir (tests must always start cold).
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fbedge-distrib-" + name +
                          "-" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0777);
  return dir;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void expect_results_eq(const EdgeAnalysisResult& a, const EdgeAnalysisResult& b) {
  EXPECT_EQ(a.groups_analyzed, b.groups_analyzed);
  EXPECT_EQ(a.sessions_analyzed, b.sessions_analyzed);
  EXPECT_EQ(a.total_traffic, b.total_traffic);
  EXPECT_EQ(a.degr_valid_traffic_rtt, b.degr_valid_traffic_rtt);
  EXPECT_EQ(a.degr_valid_traffic_hd, b.degr_valid_traffic_hd);
  EXPECT_EQ(a.opp_valid_traffic_rtt, b.opp_valid_traffic_rtt);
  EXPECT_EQ(a.opp_valid_traffic_hd, b.opp_valid_traffic_hd);
  EXPECT_EQ(a.rtt_within_3ms, b.rtt_within_3ms);
  EXPECT_EQ(a.hd_within_0025, b.hd_within_0025);
  EXPECT_EQ(a.rtt_improvable_5ms, b.rtt_improvable_5ms);
  EXPECT_EQ(a.hd_improvable_005, b.hd_improvable_005);

  auto cdf_eq = [](const WeightedCdf& x, const WeightedCdf& y) {
    WeightedCdf cx = x, cy = y;
    ASSERT_EQ(cx.size(), cy.size());
    if (cx.empty()) return;
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      EXPECT_EQ(cx.quantile(q), cy.quantile(q)) << "q=" << q;
    }
  };
  cdf_eq(a.degr_rtt, b.degr_rtt);
  cdf_eq(a.degr_hd, b.degr_hd);
  cdf_eq(a.opp_rtt, b.opp_rtt);
  cdf_eq(a.opp_hd, b.opp_hd);
  cdf_eq(a.fig10_peer_vs_transit, b.fig10_peer_vs_transit);

  ASSERT_EQ(a.table1.size(), b.table1.size());
  auto ia = a.table1.begin();
  auto ib = b.table1.begin();
  for (; ia != a.table1.end(); ++ia, ++ib) {
    EXPECT_TRUE(ia->first == ib->first);
    EXPECT_EQ(ia->second.group_traffic, ib->second.group_traffic);
    EXPECT_EQ(ia->second.event_traffic, ib->second.event_traffic);
  }
  EXPECT_EQ(a.table2_rtt.size(), b.table2_rtt.size());
  EXPECT_EQ(a.table2_hd.size(), b.table2_hd.size());
}

// ---------------------------------------------------------------------------
// Shard manifests.
// ---------------------------------------------------------------------------

ShardManifest sample_manifest() {
  ShardManifest m;
  m.base_key = 0x1122334455667788ULL;
  m.shard_index = 3;
  m.worker_count = 8;
  m.group_begin = 300;
  m.group_end = 412;
  m.artifact_key = shard_artifact_key(m.base_key, 300, 412);
  return m;
}

TEST(ShardManifest, RoundTripsThroughDisk) {
  const std::string dir = fresh_dir("manifest-roundtrip");
  const ShardManifest want = sample_manifest();
  const std::string path = shard_manifest_path(dir, want.base_key, 3, 8);
  ASSERT_TRUE(write_shard_manifest(path, want));

  ShardManifest got;
  ASSERT_TRUE(read_shard_manifest(path, got));
  EXPECT_TRUE(got == want);
}

TEST(ShardManifest, MissingFileReadsAsAbsent) {
  ShardManifest got;
  EXPECT_FALSE(read_shard_manifest("/nonexistent/dir/m.fbeshard", got));
}

TEST(ShardManifest, TruncationIsRejectedAtEveryLength) {
  const std::string dir = fresh_dir("manifest-trunc");
  const ShardManifest want = sample_manifest();
  const std::string path = shard_manifest_path(dir, want.base_key, 3, 8);
  ASSERT_TRUE(write_shard_manifest(path, want));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  const std::string cut = dir + "/cut.fbeshard";
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::FILE* out = std::fopen(cut.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, n, out), n);
    std::fclose(out);
    ShardManifest got;
    EXPECT_FALSE(read_shard_manifest(cut, got)) << "accepted at length " << n;
  }
}

TEST(ShardManifest, BitFlipsAndForeignEpochAreRejected) {
  const std::string dir = fresh_dir("manifest-corrupt");
  const ShardManifest want = sample_manifest();
  const std::string path = shard_manifest_path(dir, want.base_key, 3, 8);
  ASSERT_TRUE(write_shard_manifest(path, want));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  // Any single flipped bit anywhere — magic, epoch, payload, checksum —
  // must read as "no manifest".
  const std::string mut = dir + "/mut.fbeshard";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    std::FILE* out = std::fopen(mut.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(corrupt.data(), 1, corrupt.size(), out),
              corrupt.size());
    std::fclose(out);
    ShardManifest got;
    EXPECT_FALSE(read_shard_manifest(mut, got)) << "accepted flip at byte " << i;
  }

  // A record framed under a future epoch is rejected even with a valid
  // checksum (same policy as a stale ingest artifact).
  ByteWriter payload;
  payload.u64(want.base_key);
  payload.u32(want.shard_index);
  payload.u32(want.worker_count);
  payload.u64(want.group_begin);
  payload.u64(want.group_end);
  payload.u64(want.artifact_key);
  const char magic[8] = {'F', 'B', 'E', 'S', 'H', 'A', 'R', 'D'};
  const std::string foreign =
      frame_record(magic, kShardManifestEpoch + 1, payload.data());
  std::FILE* out = std::fopen(mut.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(foreign.data(), 1, foreign.size(), out), foreign.size());
  std::fclose(out);
  ShardManifest got;
  EXPECT_FALSE(read_shard_manifest(mut, got));
}

TEST(ShardManifest, ArtifactKeysSeparatePartitionsAndBaseRuns) {
  const std::uint64_t base = 0xabcdef0123456789ULL;
  EXPECT_NE(shard_artifact_key(base, 0, 100), shard_artifact_key(base, 0, 50));
  EXPECT_NE(shard_artifact_key(base, 0, 100), shard_artifact_key(base, 50, 100));
  EXPECT_NE(shard_artifact_key(base, 0, 100),
            shard_artifact_key(base + 1, 0, 100));
  EXPECT_NE(shard_manifest_path("d", base, 0, 2),
            shard_manifest_path("d", base, 1, 2));
  EXPECT_NE(shard_manifest_path("d", base, 0, 2),
            shard_manifest_path("d", base, 0, 4));
}

// ---------------------------------------------------------------------------
// Cross-process cache-write semantics (the write-then-rename pin).
// ---------------------------------------------------------------------------

TEST(IngestArtifactWriter, DestinationInvisibleUntilFinish) {
  const std::string dir = fresh_dir("writer-atomic");
  const std::string path = ingest_artifact_path(dir, 7);

  IngestArtifactWriter writer;
  ASSERT_TRUE(writer.open(path, 7, 2));
  ASSERT_TRUE(writer.append("first-blob"));
  // Mid-write: the destination path must not exist (writers stream into a
  // private temp file and publish by rename).
  EXPECT_FALSE(file_exists(path));
  ASSERT_TRUE(writer.append("second-blob"));
  EXPECT_FALSE(file_exists(path));
  ASSERT_TRUE(writer.finish());

  IngestArtifact artifact;
  ASSERT_TRUE(read_ingest_artifact(path, 7, 2, artifact));
  ASSERT_EQ(artifact.blobs.size(), 2u);
  EXPECT_EQ(artifact.bytes.substr(artifact.blobs[0].first,
                                  artifact.blobs[0].second),
            "first-blob");
}

TEST(IngestArtifactWriter, AbandonedWriterLeavesNothingBehind) {
  const std::string dir = fresh_dir("writer-abandon");
  const std::string path = ingest_artifact_path(dir, 8);
  {
    IngestArtifactWriter writer;
    ASSERT_TRUE(writer.open(path, 8, 3));
    ASSERT_TRUE(writer.append("partial"));
    // Destructor without finish(): temp removed, destination untouched.
  }
  EXPECT_FALSE(file_exists(path));
  IngestArtifact artifact;
  EXPECT_FALSE(read_ingest_artifact(path, 8, 3, artifact));
}

TEST(IngestArtifactWriter, ShortAppendCountNeverPublishes) {
  const std::string dir = fresh_dir("writer-short");
  const std::string path = ingest_artifact_path(dir, 9);
  IngestArtifactWriter writer;
  ASSERT_TRUE(writer.open(path, 9, 3));
  ASSERT_TRUE(writer.append("only-one"));
  EXPECT_FALSE(writer.finish());
  EXPECT_FALSE(file_exists(path));
}

TEST(IngestArtifactWriter, SameKeyWriteRaceAlwaysYieldsAValidArtifact) {
  const std::string dir = fresh_dir("writer-race");
  const std::string path = ingest_artifact_path(dir, 11);

  // Interleaved writers on one path: each streams into its own temp file,
  // so both finish and the survivor is whichever rename landed last —
  // never an interleaving of the two.
  const std::vector<std::string> blobs_a = {"aaaa", "aaaaaaaa"};
  const std::vector<std::string> blobs_b = {"bbbb", "bbbbbbbb"};
  IngestArtifactWriter a, b;
  ASSERT_TRUE(a.open(path, 11, 2));
  ASSERT_TRUE(b.open(path, 11, 2));
  ASSERT_TRUE(a.append(blobs_a[0]));
  ASSERT_TRUE(b.append(blobs_b[0]));
  ASSERT_TRUE(a.append(blobs_a[1]));
  ASSERT_TRUE(b.append(blobs_b[1]));
  EXPECT_TRUE(a.finish());
  EXPECT_TRUE(b.finish());

  IngestArtifact artifact;
  ASSERT_TRUE(read_ingest_artifact(path, 11, 2, artifact));
  const std::string first = artifact.bytes.substr(artifact.blobs[0].first,
                                                  artifact.blobs[0].second);
  EXPECT_TRUE(first == "aaaa" || first == "bbbb");

  // And under genuine thread-level concurrency, every racing write must
  // leave the destination complete and checksum-valid.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      const std::vector<std::string> blobs = {std::string(64, 'a' + t),
                                              std::string(128, 'A' + t)};
      for (int round = 0; round < 8; ++round) {
        EXPECT_TRUE(write_ingest_artifact(path, 11, blobs));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(read_ingest_artifact(path, 11, 2, artifact));
  ASSERT_EQ(artifact.blobs.size(), 2u);
  EXPECT_EQ(artifact.blobs[0].second, 64u);
  EXPECT_EQ(artifact.blobs[1].second, 128u);
}

// ---------------------------------------------------------------------------
// Artifact reader (the coordinator's reduce path).
// ---------------------------------------------------------------------------

TEST(IngestArtifactReader, ReadReturnsBlobsIdenticalToBulkRead) {
  const std::string dir = fresh_dir("reader-stream");
  const std::string path = ingest_artifact_path(dir, 21);
  const std::vector<std::string> blobs = {"", "x", std::string(100000, 'q'),
                                          "tail"};
  ASSERT_TRUE(write_ingest_artifact(path, 21, blobs));

  IngestArtifact bulk;
  ASSERT_TRUE(read_ingest_artifact(path, 21, blobs.size(), bulk));

  IngestArtifactReader reader;
  ASSERT_TRUE(reader.open(path, 21, blobs.size()));
  EXPECT_EQ(reader.groups(), blobs.size());
  std::string blob;
  for (std::size_t g = 0; g < blobs.size(); ++g) {
    ASSERT_TRUE(reader.read(g, blob)) << "blob " << g;
    EXPECT_EQ(blob, blobs[g]) << "blob " << g;
    EXPECT_EQ(blob,
              bulk.bytes.substr(bulk.blobs[g].first, bulk.blobs[g].second))
        << "blob " << g;
  }
  // Random access, repeatable, and out-of-range reads fail cleanly.
  ASSERT_TRUE(reader.read(2, blob));
  EXPECT_EQ(blob, blobs[2]);
  ASSERT_TRUE(reader.read(1, blob));
  EXPECT_EQ(blob, blobs[1]);
  EXPECT_FALSE(reader.read(blobs.size(), blob));
  EXPECT_TRUE(blob.empty());

  // Wrong key or wrong count is rejected at open, like the bulk reader;
  // kAnyGroupCount accepts whatever the header says.
  EXPECT_FALSE(reader.open(path, 22, blobs.size()));
  EXPECT_EQ(reader.groups(), 0u);
  EXPECT_FALSE(reader.read(0, blob));
  EXPECT_FALSE(reader.open(path, 21, blobs.size() + 1));
  ASSERT_TRUE(reader.open(path, 21, kAnyGroupCount));
  EXPECT_EQ(reader.groups(), blobs.size());
}

TEST(IngestArtifactReader, TruncationAndBitFlipsFailOpen) {
  const std::string dir = fresh_dir("reader-corrupt");
  const std::string path = ingest_artifact_path(dir, 23);
  ASSERT_TRUE(write_ingest_artifact(path, 23, {"alpha", "beta-beta"}));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  const std::string mut = dir + "/mut.fbecache";
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::FILE* out = std::fopen(mut.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, n, out), n);
    std::fclose(out);
    IngestArtifactReader reader;
    EXPECT_FALSE(reader.open(mut, 23, 2)) << "accepted at length " << n;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    std::FILE* out = std::fopen(mut.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(corrupt.data(), 1, corrupt.size(), out),
              corrupt.size());
    std::fclose(out);
    IngestArtifactReader reader;
    EXPECT_FALSE(reader.open(mut, 23, 2)) << "accepted flip at byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Worker semantics.
// ---------------------------------------------------------------------------

TEST(ShardWorker, PublishesArtifactThenManifestAndIsIdempotent) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::string dir = fresh_dir("worker-idempotent");

  WorkerSpec spec;
  spec.shard = 1;
  spec.workers = 3;
  spec.cache_dir = dir;
  ASSERT_EQ(run_shard_worker(world, dc, {}, spec), 0);

  const std::uint64_t base_key = ingest_cache_key(world, dc, {});
  const ShardRange range = ShardPlan::make(world.groups.size(), 3).shard(1);
  const std::uint64_t key = shard_artifact_key(base_key, range.begin, range.end);
  ShardManifest manifest;
  ASSERT_TRUE(read_shard_manifest(shard_manifest_path(dir, base_key, 1, 3),
                                  manifest));
  EXPECT_EQ(manifest.base_key, base_key);
  EXPECT_EQ(manifest.group_begin, range.begin);
  EXPECT_EQ(manifest.group_end, range.end);
  EXPECT_EQ(manifest.artifact_key, key);
  IngestArtifact artifact;
  ASSERT_TRUE(read_ingest_artifact(ingest_artifact_path(dir, key), key,
                                   range.size(), artifact));

  // Re-running the worker (a coordinator re-spawn) succeeds without
  // disturbing the published files.
  spec.attempt = 1;
  ASSERT_EQ(run_shard_worker(world, dc, {}, spec), 0);
  IngestArtifact again;
  ASSERT_TRUE(read_ingest_artifact(ingest_artifact_path(dir, key), key,
                                   range.size(), again));
  EXPECT_EQ(artifact.bytes, again.bytes);
}

TEST(ShardWorker, InjectedCrashExitsBeforeTouchingTheCache) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::string dir = fresh_dir("worker-crash");

  FaultPlan plan;
  plan.seed = 5;
  plan.worker_crash_rate = 1.0;
  WorkerSpec spec;
  spec.shard = 0;
  spec.workers = 2;
  spec.cache_dir = dir;
  EXPECT_EQ(run_shard_worker(world, dc, {}, spec, plan), kWorkerCrashExit);

  const std::uint64_t base_key = ingest_cache_key(world, dc, {});
  const ShardRange range = ShardPlan::make(world.groups.size(), 2).shard(0);
  const std::uint64_t key = shard_artifact_key(base_key, range.begin, range.end);
  EXPECT_FALSE(file_exists(shard_manifest_path(dir, base_key, 0, 2)));
  EXPECT_FALSE(file_exists(ingest_artifact_path(dir, key)));
}

// ---------------------------------------------------------------------------
// Coordinator equivalence: the tentpole guarantee.
// ---------------------------------------------------------------------------

TEST(ScaleAnalysis, MatchesInProcessRunForAnyWorkerCount) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const auto baseline = run_edge_analysis(world, dc, {}, {}, {},
                                          RuntimeOptions::sequential());
  const std::string dir = fresh_dir("coordinator-equivalence");

  // 13 > the 12-group world, so the last shard is empty — the partition
  // edge cases ride along.
  for (const int workers : {1, 2, 3, 13}) {
    ScaleOptions options;
    options.workers = workers;
    options.cache_dir = dir;
    options.reduce_runtime = RuntimeOptions{workers % 3 + 1};
    RunStats stats;
    const auto scaled =
        run_scale_analysis(world, dc, {}, {}, {}, options, &stats);
    expect_results_eq(baseline, scaled);
    EXPECT_FALSE(scaled.faults.any()) << "workers=" << workers;
    EXPECT_EQ(stats.workers_spawned, static_cast<std::uint64_t>(workers));
    EXPECT_EQ(stats.worker_failures, 0u);
    // Clean runs reduce every group from a published shard artifact.
    EXPECT_EQ(stats.cache_hits, world.groups.size());
    EXPECT_EQ(stats.cache_misses, 0u);
  }
}

TEST(ScaleAnalysis, AllWorkersCrashedStillMatchesBaseline) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const auto baseline = run_edge_analysis(world, dc, {}, {}, {},
                                          RuntimeOptions::sequential());
  const std::string dir = fresh_dir("coordinator-all-crash");

  ScaleOptions options;
  options.workers = 3;
  options.cache_dir = dir;
  options.faults.seed = 17;
  options.faults.worker_crash_rate = 1.0;
  options.faults.worker_max_attempts = 2;
  RunStats stats;
  const auto scaled = run_scale_analysis(world, dc, {}, {}, {}, options, &stats);

  // Every attempt crashed before publishing: nothing in the cache dir, all
  // shards degraded to cold ingest, and the measurement payload is still
  // byte-identical to the baseline.
  EXPECT_EQ(stats.faults.worker_crashes, 6u);
  EXPECT_EQ(stats.faults.worker_retries, 3u);
  EXPECT_EQ(stats.faults.degraded_shards, 3u);
  EXPECT_EQ(stats.workers_spawned, 6u);
  EXPECT_EQ(stats.worker_failures, 6u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, world.groups.size());
  const std::uint64_t base_key = ingest_cache_key(world, dc, {});
  for (int s = 0; s < 3; ++s) {
    EXPECT_FALSE(file_exists(shard_manifest_path(dir, base_key, s, 3)));
  }
  auto normalized = scaled;
  normalized.faults = FaultCounters{};
  expect_results_eq(baseline, normalized);
}

TEST(ScaleAnalysis, LauncherThatPublishesNothingFallsBackCold) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const auto baseline = run_edge_analysis(world, dc, {}, {}, {},
                                          RuntimeOptions::sequential());
  const std::string dir = fresh_dir("coordinator-stub-launcher");

  // A launcher that reports success but never writes anything models a
  // worker fleet whose shared filesystem silently dropped the artifacts:
  // the reduce must fall back to cold ingest for every shard.
  ScaleOptions options;
  options.workers = 2;
  options.cache_dir = dir;
  options.launcher = [](int, int) {
    WorkerExit exit;
    exit.spawned = true;
    exit.status = 0;
    return exit;
  };
  RunStats stats;
  const auto scaled = run_scale_analysis(world, dc, {}, {}, {}, options, &stats);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, world.groups.size());
  EXPECT_EQ(stats.faults.degraded_shards, 0u);  // workers "succeeded"
  expect_results_eq(baseline, scaled);
}

TEST(ScaleAnalysis, WarmRerunServesEveryGroupFromShardArtifacts) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::string dir = fresh_dir("coordinator-warm");

  ScaleOptions options;
  options.workers = 2;
  options.cache_dir = dir;
  RunStats cold_stats;
  const auto cold = run_scale_analysis(world, dc, {}, {}, {}, options,
                                       &cold_stats);
  RunStats warm_stats;
  const auto warm = run_scale_analysis(world, dc, {}, {}, {}, options,
                                       &warm_stats);
  expect_results_eq(cold, warm);
  EXPECT_EQ(warm_stats.cache_hits, world.groups.size());
  EXPECT_EQ(warm_stats.worker_failures, 0u);

  // A vandalized shard artifact (truncated in place) is rebuilt by the
  // idempotent worker on the next run, not trusted.
  const std::uint64_t base_key = ingest_cache_key(world, dc, {});
  const ShardRange range = ShardPlan::make(world.groups.size(), 2).shard(0);
  const std::string artifact_path = ingest_artifact_path(
      dir, shard_artifact_key(base_key, range.begin, range.end));
  ASSERT_EQ(::truncate(artifact_path.c_str(), 12), 0);
  RunStats repaired_stats;
  const auto repaired = run_scale_analysis(world, dc, {}, {}, {}, options,
                                           &repaired_stats);
  expect_results_eq(cold, repaired);
  EXPECT_EQ(repaired_stats.cache_hits, world.groups.size());
}

// ---------------------------------------------------------------------------
// Sweep fleet: per-scenario affected ingest over shard workers.
// ---------------------------------------------------------------------------

ScenarioPack sweep_drain_pack() {
  ScenarioPack p;
  p.name = "fleet-drain";
  p.seed = 7;
  DrainDelta d;
  d.pop = "EU-pop1";
  d.start_window = 8;
  d.end_window = 24;
  p.drains.push_back(d);
  return p;
}

ScenarioPack sweep_flash_pack(const World& world) {
  ScenarioPack p;
  p.name = "fleet-flash";
  p.seed = 7;
  FlashCrowdDelta f;
  f.country = world.groups.front().key.country.value;
  f.multiplier = 4.0;
  f.jitter = 0.1;
  p.flash_crowds.push_back(f);
  return p;
}

TEST(SweepFleet, MatchesIndependentRunsForAnyWorkerCount) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  std::vector<ScenarioPack> packs = {sweep_drain_pack(),
                                     sweep_flash_pack(world)};
  packs.emplace_back();  // empty pack: no fleet, pure splice
  packs.back().name = "fleet-empty";

  const auto baseline = run_edge_analysis(world, dc, {}, {}, {},
                                          RuntimeOptions::sequential());
  std::vector<EdgeAnalysisResult> independent;
  for (const ScenarioPack& pack : packs) {
    independent.push_back(run_edge_analysis(world, dc, {}, {}, {},
                                            RuntimeOptions::sequential(),
                                            nullptr, {}, {}, pack));
  }

  // 3 > the drain's affected-group count, so an empty slice rides along.
  for (const int workers : {1, 2, 3}) {
    const std::string dir =
        fresh_dir("sweep-fleet-eq-" + std::to_string(workers));
    SweepFleetOptions options;
    options.workers = workers;
    options.cache_dir = dir;
    options.reduce_runtime = RuntimeOptions{workers % 3 + 1};
    RunStats stats;
    const SweepOutcome outcome =
        run_sweep_analysis(world, dc, {}, {}, {}, packs, options, &stats);

    expect_results_eq(baseline, outcome.baseline);
    ASSERT_EQ(outcome.scenarios.size(), packs.size());
    for (std::size_t k = 0; k < packs.size(); ++k) {
      expect_results_eq(independent[k], outcome.scenarios[k].result);
      const std::size_t affected = outcome.scenarios[k].affected.size();
      EXPECT_EQ(outcome.scenarios[k].result.faults.scenario_groups_recomputed,
                affected);
      EXPECT_EQ(outcome.scenarios[k].result.faults.scenario_groups_reused,
                world.groups.size() - affected);
      if (!packs[k].empty()) {
        EXPECT_GT(affected, 0u) << packs[k].name;
      }
    }
    // One fleet per non-empty pack, every shard spawned exactly once.
    EXPECT_EQ(stats.workers_spawned, 2u * static_cast<unsigned>(workers));
    EXPECT_EQ(stats.worker_failures, 0u);
    EXPECT_EQ(stats.faults.degraded_shards, 0u);
  }
}

TEST(SweepFleet, AllWorkersCrashedStillMatchesIndependentRuns) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::vector<ScenarioPack> packs = {sweep_drain_pack(),
                                           sweep_flash_pack(world)};
  std::vector<EdgeAnalysisResult> independent;
  for (const ScenarioPack& pack : packs) {
    independent.push_back(run_edge_analysis(world, dc, {}, {}, {},
                                            RuntimeOptions::sequential(),
                                            nullptr, {}, {}, pack));
  }

  SweepFleetOptions options;
  options.workers = 2;
  options.cache_dir = fresh_dir("sweep-fleet-crash");
  options.faults.seed = 17;
  options.faults.worker_crash_rate = 1.0;
  options.faults.worker_max_attempts = 2;
  RunStats stats;
  const SweepOutcome outcome =
      run_sweep_analysis(world, dc, {}, {}, {}, packs, options, &stats);

  // Every attempt of every shard crashed before touching the cache: all
  // shards degrade, the affected groups cold-ingest in-process, and both
  // the measurement payload and the reuse decisions are unchanged —
  // worker crashes never widen the recompute set.
  EXPECT_EQ(stats.faults.worker_crashes, 8u);
  EXPECT_EQ(stats.faults.worker_retries, 4u);
  EXPECT_EQ(stats.faults.degraded_shards, 4u);
  EXPECT_EQ(stats.workers_spawned, 8u);
  EXPECT_EQ(stats.worker_failures, 8u);
  ASSERT_EQ(outcome.scenarios.size(), packs.size());
  for (std::size_t k = 0; k < packs.size(); ++k) {
    expect_results_eq(independent[k], outcome.scenarios[k].result);
    EXPECT_EQ(outcome.scenarios[k].result.faults.scenario_groups_recomputed,
              outcome.scenarios[k].affected.size());
  }
}

TEST(SweepFleet, WarmRerunIsIdempotentAndVandalismIsRepaired) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::vector<ScenarioPack> packs = {sweep_drain_pack()};
  const std::string dir = fresh_dir("sweep-fleet-warm");

  SweepFleetOptions options;
  options.workers = 2;
  options.cache_dir = dir;
  RunStats cold_stats;
  const SweepOutcome cold =
      run_sweep_analysis(world, dc, {}, {}, {}, packs, options, &cold_stats);
  RunStats warm_stats;
  const SweepOutcome warm =
      run_sweep_analysis(world, dc, {}, {}, {}, packs, options, &warm_stats);
  expect_results_eq(cold.baseline, warm.baseline);
  ASSERT_EQ(warm.scenarios.size(), 1u);
  expect_results_eq(cold.scenarios[0].result, warm.scenarios[0].result);
  EXPECT_EQ(warm_stats.worker_failures, 0u);
  EXPECT_EQ(warm_stats.faults.degraded_shards, 0u);

  // Truncate the first published slice artifact in place: the idempotence
  // probe rejects it (size change misses the reader memo), the worker
  // rebuilds both files, and the result is unchanged.
  const World perturbed = apply_scenario(world, packs[0]);
  const std::vector<std::size_t> affected = affected_groups(world, packs[0]);
  ASSERT_GT(affected.size(), 0u);
  const std::uint64_t base_key = sweep_base_key(perturbed, dc, {}, packs[0]);
  const ShardRange slice = ShardPlan::make(affected.size(), 2).shard(0);
  ASSERT_FALSE(slice.empty());
  const std::string artifact_path = ingest_artifact_path(
      dir, shard_artifact_key(base_key, slice.begin, slice.end));
  ASSERT_TRUE(file_exists(artifact_path));
  ASSERT_EQ(::truncate(artifact_path.c_str(), 12), 0);
  RunStats repaired_stats;
  const SweepOutcome repaired = run_sweep_analysis(world, dc, {}, {}, {},
                                                   packs, options,
                                                   &repaired_stats);
  expect_results_eq(cold.scenarios[0].result, repaired.scenarios[0].result);
  EXPECT_EQ(repaired_stats.worker_failures, 0u);
}

}  // namespace
}  // namespace fbedge
