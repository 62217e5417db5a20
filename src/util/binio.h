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
#include <span>
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

/// Streaming XXH64 (seed 0): the ingest-artifact blob and index checksum.
/// Four independent 64-bit lanes over 32-byte stripes, so it runs at memory
/// speed where FNV-1a is one multiply per byte; little-endian loads keep
/// the value host-independent. update() takes the bytes in pieces of any
/// size, so a blob read in chunks is hashed as each chunk arrives, and
/// digest() equals xxh64() of the concatenation.
class Xxh64 {
 public:
  void update(const void* data, std::size_t n) {
    using namespace detail;
    const auto* p = static_cast<const unsigned char*>(data);
    const unsigned char* const end = p + n;
    total_ += n;
    if (held_ + n < 32) {
      if (n > 0) std::memcpy(stripe_ + held_, p, n);
      held_ += n;
      return;
    }
    // Lanes in locals: `p` may alias any member, so members would be
    // reloaded on every stripe.
    std::uint64_t v1 = v_[0], v2 = v_[1], v3 = v_[2], v4 = v_[3];
    const auto round = [&](const unsigned char* s) {
      v1 = xxh64_round(v1, load_le64(s));
      v2 = xxh64_round(v2, load_le64(s + 8));
      v3 = xxh64_round(v3, load_le64(s + 16));
      v4 = xxh64_round(v4, load_le64(s + 24));
    };
    if (held_ > 0) {
      const std::size_t fill = 32 - held_;
      std::memcpy(stripe_ + held_, p, fill);
      p += fill;
      round(stripe_);
    }
    for (; end - p >= 32; p += 32) round(p);
    v_[0] = v1;
    v_[1] = v2;
    v_[2] = v3;
    v_[3] = v4;
    held_ = static_cast<std::size_t>(end - p);
    if (held_ > 0) std::memcpy(stripe_, p, held_);
  }

  /// XXH64 of every byte given so far.
  std::uint64_t digest() const {
    using namespace detail;
    std::uint64_t h = kXxhPrime5;
    if (total_ >= 32) {
      h = std::rotl(v_[0], 1) + std::rotl(v_[1], 7) + std::rotl(v_[2], 12) +
          std::rotl(v_[3], 18);
      for (const std::uint64_t v : v_) h = xxh64_merge(h, v);
    }
    h += total_;
    const unsigned char* p = stripe_;
    const unsigned char* const end = stripe_ + held_;
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

 private:
  std::uint64_t v_[4] = {detail::kXxhPrime1 + detail::kXxhPrime2, detail::kXxhPrime2, 0,
                         0 - detail::kXxhPrime1};
  std::uint64_t total_{0};
  /// The bytes of the stripe not yet complete (held_ < 32 of them).
  unsigned char stripe_[32];
  std::size_t held_{0};
};

/// One-call XXH64 (seed 0) of `n` bytes: Xxh64's update() then digest().
inline std::uint64_t xxh64(const void* data, std::size_t n) {
  Xxh64 h;
  h.update(data, n);
  return h.digest();
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

/// Where a refilling ByteReader gets its bytes: IngestArtifactReader's
/// chunked blob reads (analysis/ingest_cache.h), or a test's fake source.
class ByteSource {
 public:
  /// Returns the reader's next window: the `keep` unread bytes at `unread`
  /// (which the current window holds), then at least `need - keep` more
  /// bytes of the stream. The reader asks only for bytes the stream still
  /// has (need > keep); a window shorter than `need` means the source
  /// failed. A refill may move or reallocate the buffer, so no pointer into
  /// an earlier window survives it.
  virtual std::span<const unsigned char> refill(const unsigned char* unread,
                                                std::size_t keep, std::size_t need) = 0;

 protected:
  ~ByteSource() = default;
};

/// Bounds-checked little-endian decoder over a borrowed byte range, or
/// over a stream that a ByteSource hands out window by window. Either way
/// remaining() counts every unread byte of the whole range or stream, so a
/// parser's count bounds do not depend on where a window ends.
class ByteReader {
 public:
  /// Reads the `n` bytes at `data`.
  ByteReader(const void* data, std::size_t n)
      : data_(static_cast<const unsigned char*>(data)), size_(n) {}

  /// Reads a `length`-byte stream from `source`. A read that runs past the
  /// window refills it, so a pointer from take(), and any view over one,
  /// is valid only until the next read.
  ByteReader(ByteSource& source, std::size_t length)
      : source_(&source), after_(length) {}

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
  /// whole array. The pointer borrows the reader's buffer; on a stream, a
  /// take longer than the window grows the source's buffer to `n` bytes,
  /// never more than remain. When fewer than `n` bytes remain it returns
  /// nullptr and latches failure like every getter; check ok(), since an
  /// empty take may also be nullptr.
  const unsigned char* take(std::size_t n) {
    if (!ensure(n)) return nullptr;
    const unsigned char* at = data_ + pos_;
    pos_ += n;
    return at;
  }

  /// Advances past `n` bytes (latching failure if fewer remain). On a
  /// stream it passes window by window, so a skip never grows a buffer.
  void skip(std::size_t n) {
    if (n > remaining()) {
      ok_ = false;
      return;
    }
    while (n > size_ - pos_) {
      n -= size_ - pos_;
      pos_ = size_;
      if (!ensure(1)) return;
    }
    pos_ += n;
  }

  /// Marks the stream failed (validation found an inconsistency).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  std::size_t remaining() const { return ok_ ? size_ - pos_ + after_ : 0; }
  std::size_t position() const { return start_ + pos_; }

 private:
  bool ensure(std::size_t n) {
    if (ok_ && size_ - pos_ >= n) return true;
    return refill(n);
  }

  /// The slow half of ensure(): a window holding the next `n` bytes from
  /// the source, or a latched failure when fewer remain (always, without
  /// a source) or the source fails.
  bool refill(std::size_t n) {
    const std::size_t keep = size_ - pos_;
    if (!ok_ || n - keep > after_) {
      ok_ = false;
      return false;
    }
    const std::span<const unsigned char> window =
        source_->refill(data_ + pos_, keep, n);
    if (window.size() < n || window.size() - keep > after_) {
      ok_ = false;
      return false;
    }
    after_ -= window.size() - keep;
    start_ += pos_;
    data_ = window.data();
    size_ = window.size();
    pos_ = 0;
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

  const unsigned char* data_{nullptr};
  /// The window: data_[0, size_), read up to pos_.
  std::size_t size_{0};
  std::size_t pos_{0};
  bool ok_{true};
  ByteSource* source_{nullptr};
  /// Stream offset of data_[0], and stream bytes beyond the window.
  std::size_t start_{0};
  std::size_t after_{0};
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
