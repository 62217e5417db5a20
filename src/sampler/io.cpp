#include "sampler/io.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fbedge {

namespace {

/// Appends `v` in decimal. A double prints as printf's "%.17g" does:
/// std::to_chars in general format at precision 17 is specified to give
/// exactly that text, without printf's format parsing.
template <typename T>
void append(std::string& out, T v) {
  char buf[32];
  std::to_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  } else {
    r = std::to_chars(buf, buf + sizeof buf, v);
  }
  out.append(buf, r.ptr);
}

template <typename T>
void append_field(std::string& out, T v) {
  out.push_back('\t');
  append(out, v);
}

/// All of `f` as a decimal T: false on an empty field, a trailing byte, a
/// sign on an unsigned T, or a value T cannot hold (never wrapped).
template <typename T>
bool parse_int(std::string_view f, T& out) {
  const char* end = f.data() + f.size();
  const auto [ptr, ec] = std::from_chars(f.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// All of `f` as a double, by strtod. The field ends at a tab or at the
/// line's terminating NUL, either of which stops strtod.
bool parse_real(std::string_view f, double& out) {
  char* end = nullptr;
  out = std::strtod(f.data(), &end);
  return !f.empty() && end == f.data() + f.size();
}

}  // namespace

std::string serialize_sample(const SessionSample& s) {
  std::string out;
  out.reserve(256 + 192 * s.writes.size());
  append(out, s.id.value);
  append_field(out, s.pop.value);
  append_field(out, s.client.ip);
  append_field(out, s.client.bgp_prefix.addr);
  append_field(out, s.client.bgp_prefix.length);
  append_field(out, s.client.asn.value);
  append_field(out, s.client.country.value);
  append_field(out, static_cast<int>(s.client.continent));
  append_field(out, s.client.hosting_provider ? 1 : 0);
  append_field(out, static_cast<int>(s.version) * 2 + static_cast<int>(s.endpoint));
  append_field(out, s.established_at);
  append_field(out, s.duration);
  append_field(out, s.busy_time);
  append_field(out, s.total_bytes);
  append_field(out, s.route_index);
  append_field(out, s.min_rtt);
  append_field(out, s.num_transactions);
  for (const auto& w : s.writes) {
    append_field(out, w.first_byte_nic);
    append_field(out, w.last_byte_nic);
    append_field(out, w.second_last_ack);
    append_field(out, w.last_ack);
    append_field(out, w.bytes);
    append_field(out, w.last_packet_bytes);
    append_field(out, w.wnic);
    append_field(out, w.multiplexed ? 1 : 0);
    append_field(out, w.preempted ? 1 : 0);
  }
  return out;
}

std::optional<SessionSample> parse_sample(const std::string& line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.emplace_back(line.data() + start, line.size() - start);
      break;
    }
    fields.emplace_back(line.data() + start, tab - start);
    start = tab + 1;
  }
  if (!sample_field_count_ok(fields.size())) return std::nullopt;

  // Every field is parsed, then one verdict: `ok` only ever falls.
  bool ok = true;
  std::size_t i = 0;
  const auto integer = [&](auto& out) {
    const bool parsed = parse_int(fields[i++], out);
    ok = ok && parsed;
  };
  const auto real = [&](double& out) {
    const bool parsed = parse_real(fields[i++], out);
    ok = ok && parsed;
  };

  SessionSample s;
  std::uint32_t continent = 0;
  std::uint64_t hosting = 0;
  std::uint32_t version_endpoint = 0;
  integer(s.id.value);
  integer(s.pop.value);
  integer(s.client.ip);
  integer(s.client.bgp_prefix.addr);
  integer(s.client.bgp_prefix.length);
  integer(s.client.asn.value);
  integer(s.client.country.value);
  integer(continent);
  integer(hosting);
  integer(version_endpoint);
  real(s.established_at);
  real(s.duration);
  real(s.busy_time);
  integer(s.total_bytes);
  integer(s.route_index);
  real(s.min_rtt);
  integer(s.num_transactions);
  // Codes 0-3: HTTP version (2) x endpoint class (2).
  if (!ok || continent >= static_cast<std::uint32_t>(kNumContinents) ||
      version_endpoint > 3) {
    return std::nullopt;
  }
  s.client.continent = static_cast<Continent>(continent);
  s.client.hosting_provider = hosting != 0;
  s.version = static_cast<HttpVersion>(version_endpoint / 2);
  s.endpoint = static_cast<EndpointClass>(version_endpoint % 2);

  const std::size_t writes = (fields.size() - kSampleSessionFields) / kSampleWriteFields;
  s.writes.reserve(writes);
  for (std::size_t w = 0; w < writes; ++w) {
    ResponseWrite rw;
    std::uint64_t multiplexed = 0;
    std::uint64_t preempted = 0;
    real(rw.first_byte_nic);
    real(rw.last_byte_nic);
    real(rw.second_last_ack);
    real(rw.last_ack);
    integer(rw.bytes);
    integer(rw.last_packet_bytes);
    integer(rw.wnic);
    integer(multiplexed);
    integer(preempted);
    rw.multiplexed = multiplexed != 0;
    rw.preempted = preempted != 0;
    s.writes.push_back(rw);
  }
  if (!ok) return std::nullopt;
  return s;
}

SampleDefect validate_sample(const SessionSample& s) {
  auto finite = [](double v) { return std::isfinite(v); };
  if (s.total_bytes < 0) return SampleDefect::kNegativeBytes;
  if (s.client.bgp_prefix.length < 0 || s.client.bgp_prefix.length > 32) {
    return SampleDefect::kBadPrefix;
  }
  if (s.route_index < 0) return SampleDefect::kBadRoute;
  if (s.num_transactions < 0) return SampleDefect::kBadTransactions;
  if (!finite(s.established_at) || s.established_at < 0 || !finite(s.duration) ||
      s.duration < 0 || !finite(s.busy_time) || s.busy_time < 0) {
    return SampleDefect::kBadTime;
  }
  if (!finite(s.min_rtt) || s.min_rtt < 0) return SampleDefect::kBadRtt;
  for (const auto& w : s.writes) {
    if (w.bytes < 0 || w.last_packet_bytes < 0 || w.wnic < 0) {
      return SampleDefect::kNegativeBytes;
    }
    // Only each clock's own sanity is checked, never ACK-vs-NIC ordering:
    // the two streams run on different clocks (§3.1) and may legitimately
    // disagree under skew. Cross-stream inconsistencies are the goodput
    // evaluator's job to tolerate, not the ingest gate's to reject.
    if (!finite(w.first_byte_nic) || !finite(w.last_byte_nic) ||
        !finite(w.second_last_ack) || !finite(w.last_ack)) {
      return SampleDefect::kBadWriteTime;
    }
  }
  return SampleDefect::kNone;
}

void write_samples(std::ostream& out, const std::vector<SessionSample>& samples) {
  for (const auto& s : samples) out << serialize_sample(s) << '\n';
}

ReadResult read_samples(std::istream& in) {
  ReadResult result;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto sample = parse_sample(line)) {
      if (validate_sample(*sample) == SampleDefect::kNone) {
        result.samples.push_back(std::move(*sample));
      } else {
        ++result.invalid;
      }
    } else {
      ++result.malformed;
    }
  }
  return result;
}

}  // namespace fbedge
