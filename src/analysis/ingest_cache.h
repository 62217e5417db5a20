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
// ingest (run_edge_analysis decides after its pass: one bad blob makes the
// whole artifact a miss); a failed write is counted
// (RunStats::cache_write_failures) and otherwise ignored.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "goodput/hdratio.h"
#include "util/binio.h"
#include "workload/generator.h"
#include "workload/world.h"

namespace fbedge {

/// Cache knobs threaded from the CLI (`--cache-dir`, FBEDGE_CACHE_DIR)
/// into run_edge_analysis. Default (empty dir) disables caching entirely.
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

/// A loaded artifact: `bytes` holds every group's serialized GroupSeries
/// back to back, and `blobs` each one's (offset, length) into `bytes`, in
/// group-id order.
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
/// failure. For callers that need all blobs resident at once
/// (tools/fbedge_analyze).
bool read_ingest_artifact(const std::string& path, std::uint64_t key,
                          std::size_t expected_groups, IngestArtifact& artifact);

/// Atomically writes an artifact (temp file + rename, so readers never see
/// a partial file) containing one blob per group in group-id order.
/// Returns false on I/O failure (the run simply stays uncached; callers
/// count it in RunStats::cache_write_failures).
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
/// that reads and checks every blob through a reused buffer, so anything
/// missing, truncated, wrong-epoch, wrong-key or with a flipped byte fails
/// it. Memory stays at the index plus the largest blob, whatever the
/// artifact's size.
///
/// Access paths: the warm run_edge_analysis and read_ingest_artifact use
/// open_index() and check each blob where they read it, so every blob is
/// read and hashed once. Callers that must vouch for the whole artifact
/// before any blob is used — the shard workers' idempotence probes, the
/// scenario sweep's baseline and the shard coordinator — use open().
///
/// After either open, read(i) may be called from any number of threads at
/// once, in any order: it preads blob i (no mmap, so a file truncated
/// underneath fails the read instead of raising SIGBUS) and checks its
/// XXH64, so a blob whose bytes differ from the index fails exactly that
/// read and is never served.
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

  /// open_index(), then read() of every blob: false if any blob fails.
  bool open(const std::string& path, std::uint64_t key,
            std::size_t expected_groups);

  /// Blob count from the validated header (0 when not open).
  std::size_t groups() const { return index_.size(); }

  /// Copies blob `i` (group-id order) into `blob`, reusing its capacity.
  /// Returns false, leaving `blob` empty, when the reader is not open,
  /// `i` is out of range, or the bytes on disk do not match the index.
  bool read(std::size_t i, std::string& blob) const;

  /// Blob bytes read() has read and hashed since the last open — open()'s
  /// own pass included, and a blob that failed its checksum too.
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

/// Streaming writer for the same artifact format: blobs are appended one at
/// a time (in group-id order) straight to a temp file, so a writer holds
/// one group's blob plus a 16-byte index entry per group, never the
/// artifact — the property the multi-process shard workers (src/distrib/)
/// rely on for flat per-worker RSS. The temp name embeds the pid plus a
/// process-wide sequence number, so any number of writers racing on the
/// same destination path each stream into a private file and the winner is
/// whichever rename lands last — readers only ever observe complete,
/// checksummed artifacts. open() creates every missing directory level;
/// finish() writes the index and footer and publishes atomically;
/// abandoning the writer (destruction without finish) removes the temp
/// file and leaves the destination untouched.
class IngestArtifactWriter {
 public:
  IngestArtifactWriter() = default;
  ~IngestArtifactWriter();

  IngestArtifactWriter(const IngestArtifactWriter&) = delete;
  IngestArtifactWriter& operator=(const IngestArtifactWriter&) = delete;

  /// Starts an artifact for exactly `groups` blobs. Returns false on I/O
  /// failure (writer stays closed).
  bool open(const std::string& path, std::uint64_t key, std::uint64_t groups);

  /// Appends the next group's serialized series. Must be called exactly
  /// `groups` times, in group-id order.
  bool append(const std::string& blob);

  /// Writes the blob index and footer, closes, and atomically renames into
  /// place. Returns false (removing the temp file) on any failure or if
  /// the number of append() calls does not match open()'s group count.
  bool finish();

 private:
  void abandon();

  std::FILE* file_{nullptr};
  std::string path_;
  std::string tmp_;
  std::uint64_t expected_groups_{0};
  std::uint64_t appended_{0};
  /// Header bytes followed by one index entry per appended blob: the
  /// footer checksum covers exactly this buffer.
  ByteWriter meta_;
  bool failed_{false};
};

}  // namespace fbedge
