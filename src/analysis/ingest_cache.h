// Deterministic ingest-artifact cache: generate once, analyze everywhere.
//
// The expensive half of run_edge_analysis is ingest — simulating every
// sampled session of every group and folding it into per-(window, route)
// aggregation cells. That product, the per-group GroupSeries, is a pure
// function of (World, DatasetConfig, GoodputConfig): the analysis knobs
// (thresholds, comparison config, thread count) only consume it. So the
// series is cached as a versioned on-disk artifact keyed by a content hash
// of exactly those inputs plus the format epoch (agg/series_io.h). A warm
// run loads the artifact, skips ingest entirely, and — because
// serialization round-trips bitwise — produces byte-identical output to
// the cold run at any thread count. Five edge benches share one artifact.
//
// Failure policy: the cache can only ever make a run faster, never wrong
// and never dead. A missing, truncated, checksum-failing, wrong-epoch, or
// wrong-key artifact reads as a miss and the run falls back to cold
// ingest (run_cached_pass decides after its pass: one bad blob makes the
// whole artifact a miss); a failed write is counted
// (RunStats::cache_write_failures) and otherwise ignored.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "goodput/hdratio.h"
#include "util/binio.h"
#include "workload/generator.h"
#include "workload/world.h"

namespace fbedge {

/// Cache knobs threaded from the CLI (`--cache-dir`, FBEDGE_CACHE_DIR)
/// into run_cached_pass. Default (empty dir) disables caching entirely.
struct IngestCacheOptions {
  /// Directory holding artifacts; created, with any missing parents, on
  /// first write. Empty = off.
  std::string dir;

  bool enabled() const { return !dir.empty(); }
};

/// Content hash of everything ingest depends on: the built world (groups,
/// routes, episodes, condition processes), the dataset/sampler config, the
/// goodput target, and the artifact format epoch. Two runs with equal keys
/// produce byte-identical ingest artifacts.
std::uint64_t ingest_cache_key(const World& world, const DatasetConfig& config,
                               const GoodputConfig& goodput);

/// Artifact file path for a key inside `dir`.
std::string ingest_artifact_path(const std::string& dir, std::uint64_t key);

/// A loaded artifact (read_ingest_artifact): `bytes` holds every group's
/// serialized GroupSeries back to back, and `blobs` each one's (offset,
/// length) into `bytes`, in group-id order.
struct IngestArtifact {
  std::string bytes;
  std::vector<std::pair<std::size_t, std::size_t>> blobs;
};

/// Pass as `expected_groups` when the blob count is not known up front
/// (tools/fbedge_analyze keys by input-file hash; the count is in the
/// artifact itself).
inline constexpr std::size_t kAnyGroupCount = static_cast<std::size_t>(-1);

/// Loads every blob of the artifact at `path` into memory: an
/// IngestArtifactReader open_index() followed by read() of each blob, so
/// each blob is read and checked exactly once and the validation is
/// exactly open()'s. Returns false — leaving `artifact` empty — on any
/// failure. No library or tool path holds a whole artifact any more; the
/// benchmark's traced edge calls (perfbench/) still do.
bool read_ingest_artifact(const std::string& path, std::uint64_t key,
                          std::size_t expected_groups, IngestArtifact& artifact);

/// Atomically writes an artifact (temp file + rename, so readers never see
/// a partial file) of one blob per group in group-id order, through
/// IngestArtifactWriter. Returns false on I/O failure. No library or tool
/// path holds every blob to write them; tests and the benchmark's traced
/// sweep call (perfbench/) still do.
bool write_ingest_artifact(const std::string& path, std::uint64_t key,
                           const std::vector<std::string>& blobs);

/// The one parser of the artifact format. Layout (DESIGN.md §4e; integers
/// little-endian):
///
///   header  "FBECACHE" | u32 epoch | u64 key | u64 group count N
///   blobs   N serialized GroupSeries, back to back
///   index   N x (u64 blob length, u64 XXH64 of the blob)
///   footer  u64 XXH64 of the header and index bytes
///
/// open_index() checks the header, the footer and the index — every length
/// is bounds-checked before it is summed, and the blobs must tile the space
/// between header and index exactly, so the file size is exact — without
/// reading a blob byte. open() is open_index() plus one sequential pass
/// that checks every blob chunk by chunk, so anything missing, truncated,
/// wrong-epoch, wrong-key or with a flipped byte fails it. Memory stays at
/// the index plus one 64 KiB chunk, whatever the artifact's size.
///
/// Access paths: every reader of blobs opens the index only and checks
/// each blob where it reads it, so every blob is read and hashed once.
/// Readers that only summarize a blob stream it through parse() and hold
/// one chunk (plus the longest single take, a digest's centroids): the
/// warm run_edge_analysis and sweep baseline (run_cached_pass) and the
/// scale coordinator's shard reduce (open_fleet_shard). read() hands a
/// whole blob to the callers that keep one: the sweep fleet's slice
/// collect, tools/fbedge_analyze and read_ingest_artifact. open() serves
/// only the fleet worker's idempotence probe, which vouches for a whole
/// shard before it skips rebuilding it.
///
/// After either open, parse() and read() may be called from any number of
/// threads at once, in any order, each with its own buffer: they pread
/// blob i (no mmap, so a file truncated underneath fails the read instead
/// of raising SIGBUS) and check its XXH64, so a blob whose bytes differ
/// from the index fails exactly that call and is never served.
class IngestArtifactReader {
 public:
  IngestArtifactReader() = default;
  ~IngestArtifactReader() { close(); }

  IngestArtifactReader(const IngestArtifactReader&) = delete;
  IngestArtifactReader& operator=(const IngestArtifactReader&) = delete;

  /// Validates the header, index and footer of the artifact at `path`
  /// (kAnyGroupCount accepts any count) without reading any blob.
  bool open_index(const std::string& path, std::uint64_t key,
                  std::size_t expected_groups);

  /// open_index(), then a check of every blob, chunk by chunk through one
  /// buffer: false if any blob fails.
  bool open(const std::string& path, std::uint64_t key,
            std::size_t expected_groups);

  /// Blob count from the validated header (0 when not open).
  std::size_t groups() const { return index_.size(); }

  /// What parse() runs over a blob: true when it read the blob's bytes
  /// as it expected.
  using BlobParser = std::function<bool(ByteReader&)>;

  /// Runs `parse` over blob `i` (group-id order) and checks the blob: the
  /// one reader of blob bytes. It preads the blob into `buffer`, which the
  /// caller keeps across calls, in chunks of at most 64 KiB, hashes each
  /// chunk as it arrives, and hands `parse` a ByteReader that refills from
  /// `buffer` whenever it reads past the chunk. A take() longer than a
  /// chunk grows `buffer` to that take, never past the blob, so `buffer`
  /// holds one chunk or the longest take. Returns true only when `parse`
  /// returned true, consumed exactly the blob, and the blob's XXH64
  /// matched the index; false when the reader is not open or `i` is out
  /// of range. The bytes `parse` sees are unverified until then, so a
  /// caller acts on what it parsed only after a true return.
  bool parse(std::size_t i, std::string& buffer, const BlobParser& parse) const;

  /// Copies blob `i` (group-id order) into `blob`, reusing its capacity:
  /// parse() with `blob` as the buffer and one take of the whole blob.
  /// Returns false, leaving `blob` empty, when parse() fails.
  bool read(std::size_t i, std::string& blob) const;

  /// Blob bytes read and hashed since the last open — open()'s own pass
  /// included. A blob that failed its checksum counts whole; one whose
  /// parse failed counts only the bytes read until then, since reading
  /// stops there.
  std::uint64_t bytes_read() const { return bytes_read_.load(); }

  void close();

 private:
  struct Entry {
    std::uint64_t offset;
    std::uint64_t length;
    std::uint64_t checksum;
  };

  int fd_{-1};
  std::vector<Entry> index_;
  mutable std::atomic<std::uint64_t> bytes_read_{0};
};

/// The one writer of the artifact format. put(i, blob) may be called from
/// any number of threads at once, in any order: it hashes blob i on the
/// calling thread and pwrites it at a reserved offset of a private spill
/// file, so the writer holds its index and never a blob it was given.
/// finish() copies the blobs into a temp artifact in group-id order through
/// one bounded buffer, writes the index and footer and renames the temp
/// file into place: the bytes depend on neither the put order nor the
/// thread count, so every cold writer (run_cached_pass's save hook, the
/// fleet workers of src/distrib/, tools/fbedge_analyze) puts each blob as
/// soon as its group is ingested.
///
/// The spill sits beside the destination (same filesystem) and is unlinked
/// as soon as it is opened, so it never matches *.fbecache and no run, not
/// even a crashed one, leaves it behind; until finish() returns the blobs
/// take about twice their size on disk. Spill and temp names embed the pid
/// and a process-wide sequence number, so writers racing on one
/// destination write private files and the last rename wins — readers
/// only see complete, checksummed artifacts. open() creates every missing
/// directory level.
///
/// Failure latches: a put with an out-of-range or repeated index, or whose
/// spill write fails, fails the writer and later puts are dropped, as is
/// every put to a writer whose open() failed. finish() fails unless every
/// index in [0, groups) was put exactly once. The temp file exists only
/// inside finish(), which removes it on failure: a failed finish(), like a
/// writer destroyed without one, publishes nothing.
class IngestArtifactWriter {
 public:
  IngestArtifactWriter() = default;
  ~IngestArtifactWriter() { close_spill(); }

  IngestArtifactWriter(const IngestArtifactWriter&) = delete;
  IngestArtifactWriter& operator=(const IngestArtifactWriter&) = delete;

  /// Starts an artifact for exactly `groups` blobs. Returns false on I/O
  /// failure (writer stays closed).
  bool open(const std::string& path, std::uint64_t key, std::uint64_t groups);

  /// Stores blob `i` (group-id order), from any thread, between open() and
  /// finish(). Returns false when the blob is dropped (see above).
  bool put(std::size_t i, std::string_view blob);

  /// Publishes the artifact. Returns false, publishing nothing, on any
  /// failure or unless every blob was put exactly once.
  bool finish();

 private:
  struct Entry {
    std::uint64_t offset{0};  // in the spill
    std::uint64_t length{0};
    std::uint64_t checksum{0};
    bool put{false};
  };

  void close_spill();

  int spill_{-1};
  std::string path_;
  std::uint64_t key_{0};
  /// Spill bytes reserved so far: each put claims its range here.
  std::atomic<std::uint64_t> spill_end_{0};
  std::atomic<bool> failed_{false};
  /// Guards the entries of index_ (its size is fixed at open()).
  std::mutex mutex_;
  std::vector<Entry> index_;
};

}  // namespace fbedge
