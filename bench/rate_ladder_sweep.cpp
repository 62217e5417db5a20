// Extension bench: the goodput methodology at every rung of a video rate
// ladder (§3.2.1 notes the method is generic in the target rate). For each
// continent, prints the share of sessions that sustain each bitrate — the
// input an ABR / delivery-quality planning team would consume.
#include <array>
#include <cstdio>
#include <vector>

#include "analysis/session_metrics.h"
#include "bench_common.h"
#include "goodput/rate_ladder.h"
#include "sampler/coalescer.h"

using namespace fbedge;

int main(int argc, char** argv) {
  const auto rc = bench::performance_run(argc, argv);
  const World world = build_world(rc.world);
  DatasetGenerator generator(world, rc.dataset);

  const auto ladder_spec = default_video_ladder();
  struct ContinentTally {
    std::array<int, 5> sustained{};  // sessions whose rung ratio >= 0.5
    std::array<int, 5> tested{};
    int sessions{0};
  };
  using Tallies = std::array<ContinentTally, kNumContinents>;

  RunStats stats;
  const std::vector<Tallies> partials = parallel_map(
      world.groups.size(), rc.runtime,
      [&](std::size_t g) {
        Tallies part{};
        generator.generate_group(world.groups[g], [&](const SessionSample& s) {
          if (!SessionSampler::keep_for_analysis(s.client)) return;
          if (s.route_index != 0) return;
          const auto coalesced = coalesce_session(s.writes, s.min_rtt);
          RateLadderEvaluator ladder(ladder_spec);
          for (const auto& txn : coalesced.txns) ladder.evaluate(txn);
          auto& tally = part[static_cast<std::size_t>(s.client.continent)];
          ++tally.sessions;
          const auto& rungs = ladder.results();
          for (std::size_t r = 0; r < rungs.size(); ++r) {
            const auto ratio = rungs[r].ratio();
            if (!ratio) continue;
            ++tally.tested[r];
            if (*ratio >= 0.5) ++tally.sustained[r];
          }
        });
        return part;
      },
      &stats);
  Tallies tallies{};
  for (const Tallies& part : partials) {  // group-id order
    for (std::size_t c = 0; c < tallies.size(); ++c) {
      tallies[c].sessions += part[c].sessions;
      for (std::size_t r = 0; r < tallies[c].sustained.size(); ++r) {
        tallies[c].sustained[r] += part[c].sustained[r];
        tallies[c].tested[r] += part[c].tested[r];
      }
    }
  }

  std::printf("==== Rate ladder: share of testable sessions sustaining each "
              "bitrate ====\n");
  std::printf("paper: methodology \"can work for any target goodput\" (§3.2.1); "
              "HD=2.5 Mbps\n\n");
  std::printf("%-4s", "");
  for (const auto& rung : ladder_spec) std::printf(" %12s", rung.name.c_str());
  std::printf("\n");
  for (const Continent c : kAllContinents) {
    const auto& tally = tallies[static_cast<std::size_t>(c)];
    if (tally.sessions == 0) continue;
    std::printf("%-4s", std::string(to_code(c)).c_str());
    for (std::size_t r = 0; r < ladder_spec.size(); ++r) {
      if (tally.tested[r] == 0) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %11.1f%%", 100.0 * tally.sustained[r] / tally.tested[r]);
      }
    }
    std::printf("\n");
  }
  std::printf("\nHigher rungs are testable on fewer sessions (larger responses\n");
  std::printf("needed) and sustained by fewer still; the HD column matches the\n");
  std::printf("Figure 6(c) shares.\n");
  stats.print("rate_ladder_sweep");

  bench::JsonOutput json(rc.json_path);
  for (const Continent c : kAllContinents) {
    const auto& tally = tallies[static_cast<std::size_t>(c)];
    if (tally.sessions == 0) continue;
    // HD rung (2.5 Mbps) sustained share per continent.
    for (std::size_t r = 0; r < ladder_spec.size(); ++r) {
      if (ladder_spec[r].name != "hd-2.5" || tally.tested[r] == 0) continue;
      json.add(std::string("hd_sustained_") + std::string(to_code(c)),
               static_cast<double>(tally.sustained[r]) / tally.tested[r]);
    }
  }
  bench::add_runtime_json(json, stats);
  return json.write() ? 0 : 1;
}
