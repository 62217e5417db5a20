// Fidelity cross-validation: does the measurement pipeline reach the same
// conclusions when traffic comes from the packet-level TCP stack instead
// of the fluid model?
//
// Runs the same session plans through both substrates over identical path
// conditions and compares the resulting MinRTT medians and HDratio
// verdicts. Agreement here is what licenses using the fast fluid model
// for the 10-day dataset.
#include <cstdio>
#include <cstdlib>

#include "analysis/session_metrics.h"
#include "stats/cdf.h"
#include "util/int_flags.h"
#include "workload/generator.h"
#include "workload/packet_generator.h"

using namespace fbedge;

namespace {

/// Prints the usage line and exits 2.
[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [sessions_per_group]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // At most one argument, a whole integer >= 1: zero sessions would leave
  // the CDFs below empty.
  if (argc > 2) usage(argv[0]);
  const int sessions_per_group =
      argc == 2 ? flags::parse_int(argv[1], 1, usage, argv[0]) : 150;

  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.dest_diurnal_fraction = 0;
  wc.route_diurnal_fraction = 0;
  wc.episodic_fraction = 0;
  wc.continuous_opportunity_fraction = 0;
  const World world = build_world(wc);

  DatasetConfig dc;
  dc.seed = 2019;
  dc.hosting_fraction = 0;
  dc.bufferbloat_fraction = 0;
  DatasetGenerator fluid_generator(world, dc);
  TrafficModel traffic(2019);

  WeightedCdf fluid_rtt, packet_rtt, fluid_hd, packet_hd;
  int fluid_tested = 0, packet_tested = 0;

  std::uint64_t session_seq = 0;
  for (const auto& group : world.groups) {
    Rng rng(hash_mix(2019 ^ group.key.prefix.addr));
    for (int s = 0; s < sessions_per_group; ++s) {
      const SessionSpec spec = traffic.make_session(SessionId{session_seq++}, rng);
      const SimTime start = rng.uniform(0.0, 900.0);

      Rng fluid_rng = rng.fork();
      Rng packet_rng = fluid_rng;  // identical downstream draws

      const SessionSample fluid_sample =
          fluid_generator.run_session(group, spec, 0, start, fluid_rng);
      const SessionSample packet_sample =
          run_packet_session(group, spec, 0, start, packet_rng);

      const SessionMetrics fm = compute_session_metrics(fluid_sample);
      const SessionMetrics pm = compute_session_metrics(packet_sample);
      fluid_rtt.add(fm.min_rtt);
      packet_rtt.add(pm.min_rtt);
      if (fm.hdratio) {
        fluid_hd.add(*fm.hdratio);
        ++fluid_tested;
      }
      if (pm.hdratio) {
        packet_hd.add(*pm.hdratio);
        ++packet_tested;
      }
    }
  }

  std::printf("==== Fluid vs packet-level substrate, same session plans ====\n");
  std::printf("sessions per substrate: %d\n\n",
              sessions_per_group * static_cast<int>(world.groups.size()));
  std::printf("%-22s %12s %12s\n", "", "fluid", "packet");
  std::printf("%-22s %9.1f ms %9.1f ms\n", "MinRTT p50",
              fluid_rtt.quantile(0.5) * 1e3, packet_rtt.quantile(0.5) * 1e3);
  std::printf("%-22s %9.1f ms %9.1f ms\n", "MinRTT p90",
              fluid_rtt.quantile(0.9) * 1e3, packet_rtt.quantile(0.9) * 1e3);
  std::printf("%-22s %12d %12d\n", "HD-testable sessions", fluid_tested,
              packet_tested);
  std::printf("%-22s %12.3f %12.3f\n", "P(HDratio = 0)",
              fluid_hd.fraction_at_or_below(0.0), packet_hd.fraction_at_or_below(0.0));
  std::printf("%-22s %12.3f %12.3f\n", "P(HDratio = 1)",
              1.0 - fluid_hd.fraction_at_or_below(0.999),
              1.0 - packet_hd.fraction_at_or_below(0.999));
  std::printf("\nClose agreement licenses the fluid model for the large-scale\n");
  std::printf("dataset; residual gaps reflect ACK-clocking details the fluid\n");
  std::printf("model idealizes.\n");
  return 0;
}
