#include "analysis/ingest_cache.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "agg/series_io.h"
#include "util/binio.h"

namespace fbedge {
namespace {

constexpr char kMagic[8] = {'F', 'B', 'E', 'C', 'A', 'C', 'H', 'E'};
// magic + epoch + key + group count.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;
// One index entry per blob: u64 length + u64 XXH64.
constexpr std::size_t kIndexEntryBytes = 8 + 8;
// u64 XXH64 of header + index.
constexpr std::size_t kFooterBytes = 8;

/// pread()s exactly `n` bytes at `offset`; false on error or end of file.
bool pread_full(int fd, char* dst, std::uint64_t n, std::uint64_t offset) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, dst, static_cast<std::size_t>(n),
                                static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    dst += got;
    n -= static_cast<std::uint64_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

void hash_route(Fnv64& h, const RouteProfile& rp) {
  h.u32(rp.route.prefix.addr);
  h.u32(static_cast<std::uint32_t>(rp.route.prefix.length));
  h.u64(rp.route.as_path.size());
  for (const std::uint32_t asn : rp.route.as_path) h.u32(asn);
  h.u8(static_cast<std::uint8_t>(rp.route.relationship));
  h.f64(rp.rtt_offset);
  h.f64(rp.base_loss);
  h.f64(rp.capacity);
  h.u8(rp.diurnal_congestion ? 1 : 0);
  h.f64(rp.peak_extra_delay);
  h.f64(rp.peak_extra_loss);
}

void hash_group(Fnv64& h, const UserGroupProfile& g) {
  h.u32(g.key.pop.value);
  h.u32(g.key.prefix.addr);
  h.u32(static_cast<std::uint32_t>(g.key.prefix.length));
  h.u32(g.key.country.value);
  h.u8(static_cast<std::uint8_t>(g.continent));
  h.u32(g.asn.value);
  h.f64(g.tz_offset_hours);
  h.f64(g.location.lat);
  h.f64(g.location.lon);
  h.f64(g.pop_distance_km);
  h.u8(g.remote_served ? 1 : 0);
  h.f64(g.base_rtt);
  h.f64(g.jitter_mean);
  h.f64(g.non_hd_fraction);
  h.f64(g.sessions_per_window);
  h.f64(g.weight);
  h.u8(g.dest_diurnal ? 1 : 0);
  h.f64(g.dest_peak_delay);
  h.f64(g.dest_peak_loss);
  h.u64(g.episodes.size());
  for (const Episode& e : g.episodes) {
    h.u32(static_cast<std::uint32_t>(e.start_window));
    h.u32(static_cast<std::uint32_t>(e.end_window));
    h.u32(static_cast<std::uint32_t>(e.route_index));
    h.f64(e.extra_delay);
    h.f64(e.extra_loss);
  }
  h.u64(g.routes.size());
  for (const RouteProfile& rp : g.routes) hash_route(h, rp);
}

}  // namespace

std::uint64_t ingest_cache_key(const World& world, const DatasetConfig& config,
                               const GoodputConfig& goodput) {
  Fnv64 h;
  h.u32(kIngestArtifactEpoch);
  // Dataset / sampler knobs the generator reads.
  h.u64(config.seed);
  h.u32(static_cast<std::uint32_t>(config.days));
  h.f64(config.session_scale);
  h.f64(config.sampler.sample_rate);
  h.u32(static_cast<std::uint32_t>(config.sampler.num_alternates));
  h.f64(config.sampler.preferred_fraction);
  h.u64(config.sampler.salt);
  h.f64(config.hosting_fraction);
  h.f64(config.bufferbloat_fraction);
  // Goodput target (HD evaluation happens at ingest).
  h.f64(goodput.target_goodput);
  // The built world, group by group. Hashing the world — not the
  // WorldConfig — means callers that assembled a world by hand (tests) are
  // keyed correctly too; build_world is deterministic, so a config maps to
  // exactly one world content hash.
  h.u64(world.pops.size());
  for (const PopInfo& p : world.pops) {
    h.u32(p.id.value);
    h.u8(static_cast<std::uint8_t>(p.continent));
    h.bytes(p.name.data(), p.name.size());
    h.u8(0);  // name terminator so adjacent strings cannot alias
  }
  h.u64(world.groups.size());
  for (const UserGroupProfile& g : world.groups) hash_group(h, g);
  return h.value();
}

std::string ingest_artifact_path(const std::string& dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(key));
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path += "ingest-";
  path += name;
  path += ".fbecache";
  return path;
}

bool read_ingest_artifact(const std::string& path, std::uint64_t key,
                          std::size_t expected_groups, IngestArtifact& artifact) {
  artifact.bytes.clear();
  artifact.blobs.clear();
  IngestArtifactReader reader;
  if (!reader.open_index(path, key, expected_groups)) return false;
  artifact.blobs.reserve(reader.groups());
  std::string blob;
  for (std::size_t g = 0; g < reader.groups(); ++g) {
    if (!reader.read(g, blob)) {
      artifact.bytes.clear();
      artifact.blobs.clear();
      return false;
    }
    artifact.blobs.emplace_back(artifact.bytes.size(), blob.size());
    artifact.bytes += blob;
  }
  return true;
}

void IngestArtifactReader::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  index_.clear();
}

bool IngestArtifactReader::open_index(const std::string& path,
                                      std::uint64_t key,
                                      std::size_t expected_groups) {
  close();
  bytes_read_.store(0);
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) return false;
  const auto fail = [this] {
    close();
    return false;
  };
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return fail();
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kHeaderBytes + kFooterBytes) return fail();

  // Header first: a foreign epoch, key or count is a miss before any
  // checksum matters, and the count is bounded by the bytes present
  // before anything is sized from it.
  std::string meta(kHeaderBytes, '\0');
  if (!pread_full(fd_, meta.data(), kHeaderBytes, 0)) return fail();
  ByteReader header(meta.data(), kHeaderBytes);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(header.u8());
  const std::uint32_t epoch = header.u32();
  const std::uint64_t stored_key = header.u64();
  const std::uint64_t groups = header.u64();
  const std::uint64_t room = file_size - kHeaderBytes - kFooterBytes;
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      epoch != kIngestArtifactEpoch || stored_key != key ||
      (expected_groups != kAnyGroupCount && groups != expected_groups) ||
      groups > room / kIndexEntryBytes) {
    return fail();
  }

  // Index and footer sit at the end of the file; the footer vouches for
  // the header and index bytes together.
  const std::uint64_t index_bytes = groups * kIndexEntryBytes;
  const std::uint64_t blob_bytes = room - index_bytes;
  meta.resize(static_cast<std::size_t>(kHeaderBytes + index_bytes + kFooterBytes));
  if (!pread_full(fd_, meta.data() + kHeaderBytes, index_bytes + kFooterBytes,
                  kHeaderBytes + blob_bytes)) {
    return fail();
  }
  ByteReader footer(meta.data() + kHeaderBytes + index_bytes, kFooterBytes);
  if (footer.u64() != xxh64(meta.data(), kHeaderBytes + index_bytes)) {
    return fail();
  }

  // Each length is checked against the bytes still unclaimed before it is
  // added, so no index can overflow the running offset, and the blobs must
  // tile the blob region exactly.
  ByteReader r(meta.data() + kHeaderBytes, index_bytes);
  index_.reserve(static_cast<std::size_t>(groups));
  std::uint64_t offset = kHeaderBytes;
  std::uint64_t unclaimed = blob_bytes;
  for (std::uint64_t g = 0; g < groups; ++g) {
    const std::uint64_t length = r.u64();
    const std::uint64_t checksum = r.u64();
    if (length > unclaimed) return fail();
    index_.push_back(Entry{offset, length, checksum});
    offset += length;
    unclaimed -= length;
  }
  if (unclaimed != 0) return fail();
  return true;
}

bool IngestArtifactReader::open(const std::string& path, std::uint64_t key,
                                std::size_t expected_groups) {
  if (!open_index(path, key, expected_groups)) return false;
  // Verify pass: every blob against its checksum, in file order, through
  // one reused buffer.
  std::string blob;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (!read(i, blob)) {
      close();
      return false;
    }
  }
  return true;
}

bool IngestArtifactReader::read(std::size_t i, std::string& blob) const {
  if (fd_ < 0 || i >= index_.size()) {
    blob.clear();
    return false;
  }
  const Entry& e = index_[i];
  // resize() without a prior clear() only writes bytes beyond the old
  // size, so a reused buffer is not re-zeroed before every pread.
  blob.resize(static_cast<std::size_t>(e.length));
  const bool got = pread_full(fd_, blob.data(), e.length, e.offset);
  if (got) bytes_read_ += e.length;
  if (!got || xxh64(blob.data(), blob.size()) != e.checksum) {
    blob.clear();
    return false;
  }
  return true;
}

bool write_ingest_artifact(const std::string& path, std::uint64_t key,
                           const std::vector<std::string>& blobs) {
  IngestArtifactWriter w;
  if (!w.open(path, key, blobs.size())) return false;
  for (const std::string& blob : blobs) {
    if (!w.append(blob)) return false;
  }
  return w.finish();
}

IngestArtifactWriter::~IngestArtifactWriter() { abandon(); }

void IngestArtifactWriter::abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    std::remove(tmp_.c_str());
  }
}

bool IngestArtifactWriter::open(const std::string& path, std::uint64_t key,
                                std::uint64_t groups) {
  abandon();
  // Create every missing directory level; a failure (say, a regular file
  // in the way) surfaces as the fopen below failing.
  const std::size_t slash = path.rfind('/');
  if (slash != std::string::npos && slash > 0) {
    std::error_code ec;
    std::filesystem::create_directories(path.substr(0, slash), ec);
  }

  // Unique temp name per writer: pid separates racing processes, the
  // sequence number separates racing writers inside one process. A shared
  // temp name would let two same-key writers interleave into one file and
  // publish a corrupt (checksum-rejected) artifact.
  static std::atomic<std::uint64_t> sequence{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    sequence.fetch_add(1, std::memory_order_relaxed)));
  path_ = path;
  tmp_ = path + suffix;
  expected_groups_ = groups;
  appended_ = 0;
  failed_ = false;

  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) return false;

  meta_.clear();
  meta_.bytes(kMagic, sizeof(kMagic));
  meta_.u32(kIngestArtifactEpoch);
  meta_.u64(key);
  meta_.u64(groups);
  if (std::fwrite(meta_.data().data(), 1, meta_.size(), file_) != meta_.size()) {
    abandon();
    return false;
  }
  return true;
}

bool IngestArtifactWriter::append(const std::string& blob) {
  if (file_ == nullptr || failed_) return false;
  if (std::fwrite(blob.data(), 1, blob.size(), file_) != blob.size()) {
    failed_ = true;
    return false;
  }
  meta_.u64(blob.size());
  meta_.u64(xxh64(blob.data(), blob.size()));
  ++appended_;
  return true;
}

bool IngestArtifactWriter::finish() {
  if (file_ == nullptr || failed_ || appended_ != expected_groups_) {
    abandon();
    return false;
  }
  const std::string& meta = meta_.data();
  ByteWriter footer;
  footer.u64(xxh64(meta.data(), meta.size()));
  const std::size_t index_bytes = meta.size() - kHeaderBytes;
  const bool wrote =
      std::fwrite(meta.data() + kHeaderBytes, 1, index_bytes, file_) ==
          index_bytes &&
      std::fwrite(footer.data().data(), 1, footer.size(), file_) == footer.size();
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!wrote || !closed) {
    std::remove(tmp_.c_str());
    return false;
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    return false;
  }
  return true;
}

}  // namespace fbedge
