// Sample (de)serialization.
//
// The paper's pipeline ships captured samples from the load balancers to
// an analytics tier (§2.2.2). This module provides a compact line-based
// text format for SessionSample so datasets can be exported, inspected,
// and re-ingested; the round-trip is exact for every field the analyzers
// consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "sampler/record.h"

namespace fbedge {

/// Serializes one sample as a single line (fields tab-separated; writes
/// appended as repeated groups). Never contains '\n'. Doubles print as
/// printf's "%.17g" does, so they parse back exactly.
std::string serialize_sample(const SessionSample& sample);

/// Fields of a line: 17 for the session (the last is the transaction
/// count), then 9 per write.
inline constexpr std::size_t kSampleSessionFields = 17;
inline constexpr std::size_t kSampleWriteFields = 9;

/// Whether a line of `fields` tab-separated fields has a shape
/// parse_sample() can accept.
constexpr bool sample_field_count_ok(std::size_t fields) {
  return fields >= kSampleSessionFields &&
         (fields - kSampleSessionFields) % kSampleWriteFields == 0;
}

/// Parses a line produced by serialize_sample(). Returns nullopt on
/// malformed input: a wrong field count, an unparseable number, or an
/// integer outside its field's type (the continent and the
/// version/endpoint code outside their enums). A negative value in a
/// signed field parses; validate_sample() classifies it.
std::optional<SessionSample> parse_sample(const std::string& line);

/// Streams every sample of `samples` to `out`, one line each.
void write_samples(std::ostream& out, const std::vector<SessionSample>& samples);

/// Semantic defect classes for a structurally parseable sample. Records
/// from a real capture path can carry values no generator would produce
/// (negative sizes, non-finite timestamps); the pipeline must reject them
/// as data — recoverable, counted — rather than trip the fail-fast
/// FBEDGE_EXPECT checks reserved for programmer errors.
enum class SampleDefect : std::uint8_t {
  kNone = 0,
  kNegativeBytes,     // total_bytes or a write's byte field < 0
  kBadPrefix,         // BGP prefix length outside [0, 32]
  kBadRoute,          // negative route index
  kBadTransactions,   // negative transaction count
  kBadTime,           // non-finite or negative session timing
  kBadRtt,            // non-finite or negative MinRTT
  kBadWriteTime,      // non-finite write timestamp
};

constexpr const char* to_string(SampleDefect d) {
  switch (d) {
    case SampleDefect::kNone: return "none";
    case SampleDefect::kNegativeBytes: return "negative bytes";
    case SampleDefect::kBadPrefix: return "bad prefix";
    case SampleDefect::kBadRoute: return "bad route";
    case SampleDefect::kBadTransactions: return "bad transaction count";
    case SampleDefect::kBadTime: return "bad session time";
    case SampleDefect::kBadRtt: return "bad min rtt";
    case SampleDefect::kBadWriteTime: return "bad write time";
  }
  return "?";
}

/// Validates a parsed sample semantically. Every sample the generator
/// produces passes; faultsim-corrupted and wild-capture records that would
/// poison sketches (NaN MinRTT) or abort in the goodput models are
/// classified by their first defect.
SampleDefect validate_sample(const SessionSample& sample);

/// Reads samples until EOF; malformed lines (parse failures) and invalid
/// samples (parseable but failing validate_sample) are skipped and counted.
struct ReadResult {
  std::vector<SessionSample> samples;
  int malformed{0};
  int invalid{0};
};
ReadResult read_samples(std::istream& in);

}  // namespace fbedge
