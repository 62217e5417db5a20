#include "analysis/ingest_cache.h"

#include <algorithm>
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

// The writer's copy buffer: finish() moves spilled blobs through it.
constexpr std::size_t kCopyBufferBytes = std::size_t{1} << 20;
// The reader's chunk: each pread of a blob reads at most this many bytes.
constexpr std::size_t kBlobChunkBytes = std::size_t{64} << 10;

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

/// pwrite()s exactly `n` bytes at `offset`; false on error.
bool pwrite_full(int fd, const char* src, std::uint64_t n, std::uint64_t offset) {
  while (n > 0) {
    const ssize_t put = ::pwrite(fd, src, static_cast<std::size_t>(n),
                                 static_cast<off_t>(offset));
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    src += put;
    n -= static_cast<std::uint64_t>(put);
    offset += static_cast<std::uint64_t>(put);
  }
  return true;
}

/// A name suffix no other writer uses: the pid separates racing processes
/// and the sequence number racing writers inside one process. A shared
/// name would let two same-key writers interleave into one file and
/// publish a corrupt (checksum-rejected) artifact.
std::string unique_suffix(const char* kind) {
  static std::atomic<std::uint64_t> sequence{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".%s.%ld.%llu", kind,
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    sequence.fetch_add(1, std::memory_order_relaxed)));
  return suffix;
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
  // Verify pass: every blob against its checksum, in file order, one chunk
  // at a time through one buffer.
  std::string chunk;
  const BlobParser skip_all = [](ByteReader& r) {
    r.skip(r.remaining());
    return r.ok();
  };
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (!parse(i, chunk, skip_all)) {
      close();
      return false;
    }
  }
  return true;
}

bool IngestArtifactReader::read(std::size_t i, std::string& blob) const {
  // The blob is its own buffer: one take of the whole blob fills it from
  // its first byte, chunk by chunk.
  const bool ok = parse(i, blob, [](ByteReader& r) {
    r.take(r.remaining());
    return r.ok();
  });
  if (ok) {
    blob.resize(static_cast<std::size_t>(index_[i].length));
  } else {
    blob.clear();
  }
  return ok;
}

namespace {

/// Blob bytes at [offset, offset + length) of `fd` as a ByteSource: each
/// refill preads the next bytes into `buffer` in pieces of at most
/// kBlobChunkBytes and hashes each piece as it lands. A window is one
/// chunk (less at the blob's end) unless the reader needs more at once;
/// it never reaches past the blob.
class BlobChunks final : public ByteSource {
 public:
  BlobChunks(int fd, std::uint64_t offset, std::uint64_t length, std::string& buffer)
      : fd_(fd), offset_(offset), left_(length), buffer_(buffer) {}

  std::span<const unsigned char> refill(const unsigned char* unread, std::size_t keep,
                                        std::size_t need) override {
    const std::size_t size = std::max<std::size_t>(
        need, static_cast<std::size_t>(
                  std::min<std::uint64_t>(kBlobChunkBytes, keep + left_)));
    // The unread bytes lie in buffer_ (the window handed out last).
    if (keep > 0) std::memmove(buffer_.data(), unread, keep);
    if (buffer_.size() < size) buffer_.resize(size);
    for (std::size_t at = keep; at < size;) {
      const std::size_t n = std::min(kBlobChunkBytes, size - at);
      if (!pread_full(fd_, buffer_.data() + at, n, offset_)) return {};
      hash_.update(buffer_.data() + at, n);
      offset_ += n;
      left_ -= n;
      at += n;
    }
    return {reinterpret_cast<const unsigned char*>(buffer_.data()), size};
  }

  /// Blob bytes not read yet.
  std::uint64_t unread() const { return left_; }
  std::uint64_t checksum() const { return hash_.digest(); }

 private:
  int fd_;
  std::uint64_t offset_;
  std::uint64_t left_;
  std::string& buffer_;
  Xxh64 hash_;
};

}  // namespace

bool IngestArtifactReader::parse(std::size_t i, std::string& buffer,
                                 const BlobParser& parse) const {
  if (fd_ < 0 || i >= index_.size()) return false;
  const Entry& e = index_[i];
  BlobChunks chunks(fd_, e.offset, e.length, buffer);
  ByteReader r(chunks, static_cast<std::size_t>(e.length));
  const bool parsed = parse(r) && r.ok() && r.remaining() == 0;
  bytes_read_ += e.length - chunks.unread();
  return parsed && chunks.checksum() == e.checksum;
}

bool write_ingest_artifact(const std::string& path, std::uint64_t key,
                           const std::vector<std::string>& blobs) {
  IngestArtifactWriter w;
  if (!w.open(path, key, blobs.size())) return false;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    if (!w.put(i, blobs[i])) return false;
  }
  return w.finish();
}

void IngestArtifactWriter::close_spill() {
  if (spill_ >= 0) {
    ::close(spill_);
    spill_ = -1;
  }
  index_.clear();
}

bool IngestArtifactWriter::open(const std::string& path, std::uint64_t key,
                                std::uint64_t groups) {
  close_spill();
  // Create every missing directory level; a failure (say, a regular file
  // in the way) surfaces as the spill open below failing.
  const std::size_t slash = path.rfind('/');
  if (slash != std::string::npos && slash > 0) {
    std::error_code ec;
    std::filesystem::create_directories(path.substr(0, slash), ec);
  }
  path_ = path;
  key_ = key;
  spill_end_.store(0);
  failed_.store(false);

  // Named only between the open and the unlink, so no *.fbecache glob, no
  // finished run and no crash after this point ever finds it.
  const std::string spill = path + unique_suffix("spill");
  spill_ = ::open(spill.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (spill_ < 0) return false;
  if (::unlink(spill.c_str()) != 0) {
    close_spill();
    return false;
  }
  index_.assign(static_cast<std::size_t>(groups), Entry{});
  return true;
}

bool IngestArtifactWriter::put(std::size_t i, std::string_view blob) {
  if (spill_ < 0 || failed_.load()) return false;
  bool ok = i < index_.size();
  if (ok) {
    const std::uint64_t checksum = xxh64(blob.data(), blob.size());
    const std::uint64_t offset = spill_end_.fetch_add(blob.size());
    ok = pwrite_full(spill_, blob.data(), blob.size(), offset);
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = index_[i];
    ok = ok && !e.put;
    if (ok) e = Entry{offset, blob.size(), checksum, true};
  }
  if (!ok) failed_.store(true);
  return ok;
}

bool IngestArtifactWriter::finish() {
  // Header and index, in group-id order: the footer checksum covers
  // exactly these bytes.
  ByteWriter meta;
  meta.bytes(kMagic, sizeof(kMagic));
  meta.u32(kIngestArtifactEpoch);
  meta.u64(key_);
  meta.u64(index_.size());
  bool ok = spill_ >= 0 && !failed_.load();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& e : index_) {
      ok = ok && e.put;
      meta.u64(e.length);
      meta.u64(e.checksum);
    }
  }
  if (!ok) {
    close_spill();
    return false;
  }
  meta.u64(xxh64(meta.data().data(), meta.size()));

  std::string buffer(
      static_cast<std::size_t>(std::min<std::uint64_t>(kCopyBufferBytes, spill_end_.load())),
      '\0');
  const std::string tmp = path_ + unique_suffix("tmp");
  const int out = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (out < 0) {
    close_spill();
    return false;
  }
  const std::string& bytes = meta.data();
  ok = pwrite_full(out, bytes.data(), kHeaderBytes, 0);
  std::uint64_t at = kHeaderBytes;
  for (const Entry& e : index_) {
    for (std::uint64_t done = 0; ok && done < e.length;) {
      const std::uint64_t n = std::min<std::uint64_t>(buffer.size(), e.length - done);
      ok = pread_full(spill_, buffer.data(), n, e.offset + done) &&
           pwrite_full(out, buffer.data(), n, at);
      done += n;
      at += n;
    }
  }
  ok = ok && pwrite_full(out, bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes, at);
  ok = ::close(out) == 0 && ok;
  ok = ok && std::rename(tmp.c_str(), path_.c_str()) == 0;
  if (!ok) ::unlink(tmp.c_str());
  close_spill();
  return ok;
}

}  // namespace fbedge
