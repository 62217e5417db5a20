// Bitwise-exact little-endian binary encoding for cache artifacts.
//
// Every multi-byte value is written byte-by-byte in little-endian order, and
// doubles travel as their raw IEEE-754 bit patterns — NaN payloads, ±inf,
// and negative zero round-trip bit-for-bit (never through text formatting).
// ByteReader loads each value with one unaligned-safe memcpy, which reads
// the wire order only on a little-endian host; the static_assert below (and
// TDigest's bulk centroid read) make that the one supported host order.
// ByteReader never throws and never reads out of bounds: any overrun or
// failed validation latches `ok() == false` and subsequent reads return
// zeros, so corrupt artifacts degrade into a rejected load, not a crash.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace fbedge {

/// FNV-1a 64-bit running hash: the cache-key content hash, result digests
/// and the framed-record checksum (util layer so every module can key
/// artifacts). Byte-serial, so bulk checksums use xxh64() instead.
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 4);
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

namespace detail {

inline constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxhPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxhPrime1;
}

inline std::uint64_t xxh64_merge(std::uint64_t acc, std::uint64_t lane) {
  acc ^= xxh64_round(0, lane);
  return acc * kXxhPrime1 + kXxhPrime4;
}

}  // namespace detail

/// One-shot XXH64 (seed 0) of `n` bytes: the ingest-artifact blob and
/// index checksum. Four independent 64-bit lanes over 32-byte stripes, so
/// it runs at memory speed where FNV-1a is one multiply per byte.
/// Little-endian loads keep the value host-independent.
inline std::uint64_t xxh64(const void* data, std::size_t n) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h = 0;
  if (n >= 32) {
    std::uint64_t v1 = kXxhPrime1 + kXxhPrime2;
    std::uint64_t v2 = kXxhPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxhPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh64_round(v1, load_le64(p));
      v2 = xxh64_round(v2, load_le64(p + 8));
      v3 = xxh64_round(v3, load_le64(p + 16));
      v4 = xxh64_round(v4, load_le64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xxh64_merge(h, v1);
    h = xxh64_merge(h, v2);
    h = xxh64_merge(h, v3);
    h = xxh64_merge(h, v4);
  } else {
    h = kXxhPrime5;
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h ^= xxh64_round(0, load_le64(p));
    h = std::rotl(h, 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(load_le32(p)) * kXxhPrime1;
    h = std::rotl(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kXxhPrime5;
    h = std::rotl(h, 11) * kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

/// Append-only little-endian encoder into an owned byte string.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    out_.append(b, 4);
  }
  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    out_.append(b, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Raw IEEE-754 bits; bitwise round-trip for every payload incl. NaNs.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }

  /// Pre-grows the buffer for `n` further bytes beyond what is already
  /// written, so a caller that knows its encoded size pays one allocation
  /// instead of the string's geometric growth path.
  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }

  const std::string& data() const { return out_; }
  std::size_t size() const { return out_.size(); }
  /// Clears content but keeps capacity (serialization scratch reuse).
  void clear() { out_.clear(); }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t n)
      : data_(static_cast<const unsigned char*>(data)), size_(n) {}

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `n` bytes where they lie, and advances past them: the bulk
  /// read of an array whose in-memory layout is its little-endian wire
  /// layout (callers static_assert that), with one bounds check for the
  /// whole array. The pointer borrows the reader's buffer. When fewer than
  /// `n` bytes remain it returns nullptr and latches failure like every
  /// getter; check ok(), since an empty take may also be nullptr.
  const unsigned char* take(std::size_t n) {
    if (!ensure(n)) return nullptr;
    const unsigned char* at = data_ + pos_;
    pos_ += n;
    return at;
  }

  /// Advances past `n` bytes (latching failure if fewer remain).
  void skip(std::size_t n) {
    if (ensure(n)) pos_ += n;
  }

  /// Marks the stream failed (validation found an inconsistency).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
  std::size_t position() const { return pos_; }

 private:
  bool ensure(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  /// One bounds check and one unaligned-safe load, where a byte loop would
  /// store pos_ once per byte.
  template <typename T>
  T load() {
    static_assert(std::endian::native == std::endian::little,
                  "ByteReader loads little-endian wire integers natively");
    if (!ensure(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_{0};
  bool ok_{true};
};

// ---------------------------------------------------------------------------
// Framed records: the shared envelope for small on-disk metadata files
// (shard manifests, and any future sidecar record). Layout:
//
//   magic[8] | epoch u32 | payload_size u64 | payload bytes | fnv64 checksum
//
// where the trailing checksum covers every byte before it. Rejection
// semantics mirror stale ingest artifacts: wrong magic, foreign epoch,
// truncation, trailing garbage, or a flipped bit anywhere all read as "no
// record here" — callers fall back as if the file were absent.
// ---------------------------------------------------------------------------

/// Encodes `payload` inside a framed envelope. `magic` must be exactly 8
/// bytes (not NUL-terminated).
inline std::string frame_record(const char magic[8], std::uint32_t epoch,
                                const std::string& payload) {
  ByteWriter w;
  w.reserve(8 + 4 + 8 + payload.size() + 8);
  w.bytes(magic, 8);
  w.u32(epoch);
  w.u64(payload.size());
  w.bytes(payload.data(), payload.size());
  Fnv64 sum;
  sum.bytes(w.data().data(), w.size());
  w.u64(sum.value());
  return w.take();
}

/// Validates a framed envelope and extracts its payload. Returns false —
/// leaving `payload` empty — on wrong magic, epoch mismatch, truncation,
/// size/trailer inconsistency, or checksum failure. Never reads out of
/// bounds on corrupt input.
inline bool unframe_record(const void* data, std::size_t n, const char magic[8],
                           std::uint32_t epoch, std::string& payload) {
  payload.clear();
  constexpr std::size_t kEnvelope = 8 + 4 + 8 + 8;
  if (n < kEnvelope) return false;
  const char* bytes = static_cast<const char*>(data);
  const std::size_t body = n - 8;
  Fnv64 sum;
  sum.bytes(bytes, body);
  ByteReader tail(bytes + body, 8);
  if (tail.u64() != sum.value()) return false;
  ByteReader r(bytes, body);
  char got[8];
  for (char& c : got) c = static_cast<char>(r.u8());
  if (std::memcmp(got, magic, 8) != 0) return false;
  if (r.u32() != epoch) return false;
  const std::uint64_t size = r.u64();
  if (!r.ok() || size != r.remaining()) return false;
  payload.assign(bytes + r.position(), static_cast<std::size_t>(size));
  return true;
}

}  // namespace fbedge
