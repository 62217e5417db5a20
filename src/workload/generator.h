// Dataset generator: drives the synthetic world through the fluid TCP
// model and emits the SessionSamples the load-balancer instrumentation
// would have captured (§2.2).
//
// Sessions are generated group-by-group so that downstream analysis can
// process one user group's full 10-day series at a time and release it —
// the whole dataset never needs to be resident.
#pragma once

#include <functional>

#include "sampler/record.h"
#include "sampler/sampler.h"
#include "sampler/session_batch.h"
#include "workload/distributions.h"
#include "workload/world.h"

namespace fbedge {

struct DatasetConfig {
  std::uint64_t seed{7};
  int days{10};
  /// Multiplies every group's sessions_per_window (sampled-session counts).
  double session_scale{1.0};
  /// Route-override behaviour (§2.2.3): fraction on preferred route and
  /// number of alternates under continuous measurement.
  SamplerConfig sampler;
  /// Fraction of sessions from hosting-provider / VPN clients (§2.2.4
  /// filters these; the generator produces them so the filter has work).
  double hosting_fraction{0.02};
  /// Fraction of sessions behind a bufferbloated access link: every RTT
  /// the session observes is inflated by hundreds of ms to seconds (§3.3
  /// cites tail MinRTT values "on the order of seconds"). These sessions
  /// are why the aggregation layer uses medians, not means.
  double bufferbloat_fraction{0.004};
};

using SessionSink = std::function<void(const SessionSample&)>;

/// Receives one filled SessionBatch per 15-minute window (only windows with
/// at least one session). The batch reference is only valid for the call;
/// the sink may rewrite rows in place (the sampler fault stage's row form),
/// since the generator clears the batch before the next window.
using WindowBatchSink = std::function<void(int window, SessionBatch&)>;

/// Sets the fields every record of `group` carries alike — PoP, BGP
/// prefix, ASN, country, continent — as generate_group's records carry
/// them. A SessionBatch has no column for these.
void set_group_fields(const UserGroupProfile& group, SessionSample& sample);

class DatasetGenerator {
 public:
  DatasetGenerator(const World& world, DatasetConfig config);

  /// Emits every sampled session of one group across the whole study span,
  /// in time order.
  void generate_group(const UserGroupProfile& group, const SessionSink& sink) const;

  /// Columnar variant of generate_group: fills `batch` with one window's
  /// sessions at a time and hands it to `sink` (empty windows are skipped).
  /// The caller owns `batch` so its arena survives across windows *and*
  /// groups — at steady state no per-session allocation happens. Consumes
  /// the identical RNG draw sequence as generate_group (both run the same
  /// session-simulation template), so emitted values are bit-identical to
  /// the scalar path's, column-for-field.
  void generate_group_batched(const UserGroupProfile& group, SessionBatch& batch,
                              const WindowBatchSink& sink) const;

  /// Emits all groups, one at a time.
  void generate(const SessionSink& sink) const;

  /// Simulates a single session end-to-end (exposed for tests): plans the
  /// transactions, coalesces overlapping/back-to-back responses into
  /// transfer groups, runs each group through the fluid TCP model under
  /// the group's path conditions, and assembles the sample record.
  SessionSample run_session(const UserGroupProfile& group, const SessionSpec& spec,
                            int route_index, SimTime start, Rng& rng) const;

  /// As run_session, but refills `sample` in place (the writes vector keeps
  /// its capacity across sessions) so the steady-state hot path allocates
  /// nothing. Same RNG draw sequence and output as run_session.
  void run_session_into(const UserGroupProfile& group, const SessionSpec& spec,
                        int route_index, SimTime start, Rng& rng,
                        SessionSample& sample) const;

  const World& world() const { return world_; }
  const DatasetConfig& config() const { return config_; }

 private:
  /// The one session-simulation body. Both output layouts (SessionSample
  /// via run_session_into, SessionBatch rows via generate_group_batched)
  /// instantiate this with their own emitter, which guarantees the two
  /// paths consume identical RNG draws and compute identical values — the
  /// emitter only decides where each value is stored. Defined in
  /// generator.cpp; both instantiations live there.
  template <typename Emitter>
  void run_session_emit(const UserGroupProfile& group, const SessionSpec& spec,
                        int route_index, SimTime start, Rng& rng,
                        Emitter& emit) const;

  const World& world_;
  DatasetConfig config_;
  TrafficModel traffic_;
  SessionSampler sampler_;
};

}  // namespace fbedge
