// Tests for the declarative scenario layer (src/scenario/).
//
// The headline guarantees, mirroring the faultsim contract:
//   1. An empty ScenarioPack takes exactly the scenario-free code path —
//      run_edge_analysis outputs are identical to a call that never
//      mentions scenarios, at any thread count.
//   2. Every per-group perturbation magnitude is a pure function of
//      (seed, site, group key, delta identity) — independent of
//      evaluation order, interleaving, and other deltas.
//   3. Composition is canonical: the same deltas listed in any config
//      order produce bitwise-identical perturbed worlds and verdicts.
//   4. Golden fixture scenarios reproduce their pinned verdict hashes at
//      any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/edge_analysis.h"
#include "analysis/edge_reduce.h"
#include "analysis/sweep.h"
#include "analysis/whatif.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "util/binio.h"
#include "workload/world.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

WorldConfig small_world() {
  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.days = 1;
  return wc;
}

DatasetConfig small_dataset() {
  DatasetConfig dc;
  dc.seed = 2019;
  dc.days = 1;
  dc.session_scale = 0.1;
  return dc;
}

// The golden fixture world: must stay in lockstep with the pinned
// `# golden-verdict:` hashes in tests/data/scenarios/*.conf, which were
// measured with `fbedge_whatif 4 --days 1` (seed 2019, session_scale 1).
WorldConfig golden_world() {
  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 4;
  wc.days = 1;
  return wc;
}

DatasetConfig golden_dataset() {
  DatasetConfig dc;
  dc.seed = 2019;
  dc.days = 1;
  dc.session_scale = 1.0;
  return dc;
}

RuntimeOptions threads(int n) {
  RuntimeOptions rt;
  rt.threads = n;
  return rt;
}

// Content digest of everything apply_scenario may touch: route order,
// route->episode wiring, episode lists, and arrival rates. Two worlds with
// equal digests are interchangeable for the analysis pipeline.
std::uint64_t world_digest(const World& world) {
  Fnv64 h;
  h.u64(world.groups.size());
  for (const auto& g : world.groups) {
    h.u64(group_fault_key(g.key));
    h.f64(g.sessions_per_window);
    h.u64(g.routes.size());
    for (const auto& r : g.routes) {
      h.u64(r.route.as_path.size());
      for (const std::uint32_t asn : r.route.as_path) h.u32(asn);
      h.f64(r.rtt_offset);
      h.f64(r.base_loss);
    }
    h.u64(g.episodes.size());
    for (const auto& e : g.episodes) {
      h.i64(e.start_window);
      h.i64(e.end_window);
      h.i64(e.route_index);
      h.f64(e.extra_delay);
      h.f64(e.extra_loss);
    }
  }
  return h.value();
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

ScenarioPack parse_ok(const std::string& text) {
  ScenarioParseResult r = parse_scenario(text);
  EXPECT_TRUE(r.ok) << r.error;
  return r.pack;
}

constexpr const char* kFullScenario = R"(# every section and key
[scenario]
name = kitchen-sink
seed = 99

[drain]
pop = EU-pop1
start_window = 10
end_window = 20
reroute_rtt_min_ms = 20
reroute_rtt_max_ms = 45
reroute_loss = 0.002

[depref]
asn = 3356
continent = all

[depref]
asn = 1299
continent = AS

[flash_crowd]
country = 300
multiplier = 8
jitter = 0.15
start_window = 40
end_window = 72
congestion_delay_ms = 12
congestion_loss = 0.01

[cable_cut]
continents = EU-AF
extra_rtt_ms = 80
extra_loss = 0.003
start_window = 0
end_window = 96
)";

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

TEST(ScenarioParse, ParsesEverySectionAndKey) {
  const ScenarioPack p = parse_ok(kFullScenario);
  EXPECT_EQ(p.name, "kitchen-sink");
  EXPECT_EQ(p.seed, 99u);
  ASSERT_EQ(p.drains.size(), 1u);
  EXPECT_EQ(p.drains[0].pop, "EU-pop1");
  EXPECT_EQ(p.drains[0].start_window, 10);
  EXPECT_EQ(p.drains[0].end_window, 20);
  EXPECT_DOUBLE_EQ(p.drains[0].reroute_rtt_min, 0.020);
  EXPECT_DOUBLE_EQ(p.drains[0].reroute_rtt_max, 0.045);
  EXPECT_DOUBLE_EQ(p.drains[0].reroute_loss, 0.002);
  ASSERT_EQ(p.deprefs.size(), 2u);
  EXPECT_EQ(p.deprefs[0].asn, 3356u);
  EXPECT_TRUE(p.deprefs[0].all_continents);
  EXPECT_EQ(p.deprefs[1].asn, 1299u);
  EXPECT_FALSE(p.deprefs[1].all_continents);
  EXPECT_EQ(p.deprefs[1].continent, Continent::kAsia);
  ASSERT_EQ(p.flash_crowds.size(), 1u);
  EXPECT_EQ(p.flash_crowds[0].country, 300u);
  EXPECT_DOUBLE_EQ(p.flash_crowds[0].multiplier, 8.0);
  EXPECT_DOUBLE_EQ(p.flash_crowds[0].jitter, 0.15);
  EXPECT_EQ(p.flash_crowds[0].start_window, 40);
  EXPECT_EQ(p.flash_crowds[0].end_window, 72);
  EXPECT_DOUBLE_EQ(p.flash_crowds[0].congestion_delay, 0.012);
  EXPECT_DOUBLE_EQ(p.flash_crowds[0].congestion_loss, 0.01);
  ASSERT_EQ(p.cable_cuts.size(), 1u);
  EXPECT_EQ(p.cable_cuts[0].a, Continent::kEurope);
  EXPECT_EQ(p.cable_cuts[0].b, Continent::kAfrica);
  EXPECT_DOUBLE_EQ(p.cable_cuts[0].extra_rtt, 0.080);
  EXPECT_DOUBLE_EQ(p.cable_cuts[0].extra_loss, 0.003);
  EXPECT_EQ(p.cable_cuts[0].start_window, 0);
  EXPECT_EQ(p.cable_cuts[0].end_window, 96);
}

TEST(ScenarioParse, SerializeRoundTripIsStable) {
  const ScenarioPack p = parse_ok(kFullScenario);
  const std::string once = serialize_scenario(p);
  const std::string twice = serialize_scenario(parse_ok(once));
  EXPECT_EQ(once, twice);
}

TEST(ScenarioParse, EmptyTextYieldsEmptyPack) {
  const ScenarioPack p = parse_ok("# nothing but comments\n\n");
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(p.name.empty());
}

TEST(ScenarioParse, RejectsMalformedInput) {
  struct Case {
    const char* text;
    const char* expect;  // substring of the error
  };
  const Case cases[] = {
      {"[scenario\nname = x\n", "unterminated section header"},
      {"[volcano]\n", "unknown section"},
      {"name = x\n", "outside any section"},
      {"[drain]\naltitude = 3\n", "unknown key"},
      {"[drain]\nreroute_loss = smol\n", "number"},
      {"[drain]\nstart_window = 1.5\n", "integer"},
      {"[scenario]\nseed = -4\n", "seed"},
      {"[depref]\nasn = bogus\n", "asn"},
      {"[depref]\ncontinent = ZZ\n", "continent"},
      {"[flash_crowd]\ncountry = -1\n", "country"},
      {"[cable_cut]\ncontinents = EU\n", "continent"},
      {"[drain]\njust a bare line\n", "key = value"},
  };
  for (const Case& c : cases) {
    const ScenarioParseResult r = parse_scenario(c.text);
    EXPECT_FALSE(r.ok) << c.text;
    EXPECT_NE(r.error.find(c.expect), std::string::npos)
        << "text: " << c.text << "\nerror: " << r.error;
    EXPECT_NE(r.error.find("line "), std::string::npos) << r.error;
  }
}

// ---------------------------------------------------------------------------
// Semantic validation (fail-fast).
// ---------------------------------------------------------------------------

class ScenarioValidateDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    world_ = build_world(small_world());
  }
  void expect_rejected(const ScenarioPack& pack, const char* msg) {
    EXPECT_DEATH(validate_scenario(world_, pack), msg);
  }
  World world_;
};

TEST_F(ScenarioValidateDeathTest, RejectsBadDrains) {
  ScenarioPack p;
  p.drains.push_back({"XX-pop9", 0, 4, 0.02, 0.04, 0.0});
  expect_rejected(p, "unknown PoP");
  p.drains[0] = {"EU-pop1", -1, 4, 0.02, 0.04, 0.0};
  expect_rejected(p, "negative start_window");
  p.drains[0] = {"EU-pop1", 4, 4, 0.02, 0.04, 0.0};
  expect_rejected(p, "empty window range");
  p.drains[0] = {"EU-pop1", 0, 4, -0.02, 0.04, 0.0};
  expect_rejected(p, "negative reroute RTT");
  p.drains[0] = {"EU-pop1", 0, 4, 0.04, 0.02, 0.0};
  expect_rejected(p, "RTT range inverted");
  p.drains[0] = {"EU-pop1", 0, 4, 0.02, 0.04, 1.5};
  expect_rejected(p, "reroute_loss");
}

TEST_F(ScenarioValidateDeathTest, RejectsBadDeprefsAndFlashCrowds) {
  ScenarioPack p;
  p.deprefs.push_back({0, true, Continent::kEurope});
  expect_rejected(p, "zero ASN");
  p.deprefs.clear();

  FlashCrowdDelta f;
  f.country = 700;  // no continent 7
  f.multiplier = 2.0;
  p.flash_crowds.push_back(f);
  expect_rejected(p, "unknown country");
  p.flash_crowds[0].country = 200;
  p.flash_crowds[0].multiplier = 0.0;
  expect_rejected(p, "multiplier");
  p.flash_crowds[0].multiplier = 2.0;
  p.flash_crowds[0].jitter = 1.0;
  expect_rejected(p, "jitter");
  p.flash_crowds[0].jitter = 0.1;
  p.flash_crowds[0].start_window = 3;  // end_window still -1
  expect_rejected(p, "half-open congestion window");
  p.flash_crowds[0].end_window = 3;
  expect_rejected(p, "empty congestion window");
}

TEST_F(ScenarioValidateDeathTest, RejectsBadCableCuts) {
  ScenarioPack p;
  CableCutDelta c;
  c.a = c.b = Continent::kEurope;
  c.end_window = 4;
  p.cable_cuts.push_back(c);
  expect_rejected(p, "identical continents");
  p.cable_cuts[0].b = Continent::kAfrica;
  p.cable_cuts[0].extra_rtt = -0.1;
  expect_rejected(p, "negative extra_rtt");
  p.cable_cuts[0].extra_rtt = 0.08;
  p.cable_cuts[0].extra_loss = 2.0;
  expect_rejected(p, "extra_loss");
  p.cable_cuts[0].extra_loss = 0.0;
  p.cable_cuts[0].end_window = 0;
  expect_rejected(p, "empty window range");
}

// ---------------------------------------------------------------------------
// Empty pack == scenario-free path, byte for byte, at any thread count.
// ---------------------------------------------------------------------------

TEST(ScenarioApply, EmptyPackIsByteIdenticalToBaseline) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  const auto baseline =
      run_edge_analysis(world, dc, {}, {}, {}, threads(1));
  for (const int n : {1, 4}) {
    const auto with_pack = run_edge_analysis(world, dc, {}, {}, {},
                                             threads(n), nullptr, {}, {},
                                             ScenarioPack{});
    EXPECT_EQ(whatif_report(baseline).verdict_hash,
              whatif_report(with_pack).verdict_hash)
        << "threads=" << n;
    EXPECT_EQ(with_pack.faults.scenario_drained_groups, 0u);
    EXPECT_EQ(with_pack.faults.scenario_depref_groups, 0u);
    EXPECT_EQ(with_pack.faults.scenario_flash_groups, 0u);
    EXPECT_EQ(with_pack.faults.scenario_cable_cut_groups, 0u);
  }

  // apply_scenario itself must be the identity for an empty pack.
  FaultCounters counters;
  const World copy = apply_scenario(world, {}, &counters);
  EXPECT_EQ(world_digest(copy), world_digest(world));
  EXPECT_FALSE(counters.any());
}

// ---------------------------------------------------------------------------
// Purity: every magnitude draw depends only on (seed, site, key, delta).
// ---------------------------------------------------------------------------

TEST(ScenarioChaos, HundredSeedPuritySweep) {
  const World world = build_world(small_world());
  std::vector<std::uint64_t> keys;
  for (const auto& g : world.groups) keys.push_back(group_fault_key(g.key));
  ASSERT_GE(keys.size(), 4u);

  DrainDelta drain;
  drain.start_window = 8;
  drain.end_window = 24;
  FlashCrowdDelta flash;
  flash.country = 100;
  flash.multiplier = 6.0;
  flash.jitter = 0.25;
  CableCutDelta cut;
  cut.a = Continent::kEurope;
  cut.b = Continent::kAfrica;

  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    // Forward pass.
    std::vector<double> rtt, mult, stretch;
    for (const std::uint64_t k : keys) {
      rtt.push_back(drain_reroute_rtt(seed, drain, k));
      mult.push_back(flash_session_multiplier(seed, flash, k));
      stretch.push_back(cable_cut_stretch(seed, cut, k));
    }
    // Reverse pass, interleaved differently: identical values bit for bit.
    for (std::size_t i = keys.size(); i-- > 0;) {
      EXPECT_EQ(stretch[i], cable_cut_stretch(seed, cut, keys[i]));
      EXPECT_EQ(rtt[i], drain_reroute_rtt(seed, drain, keys[i]));
      EXPECT_EQ(mult[i], flash_session_multiplier(seed, flash, keys[i]));
    }
    // Ranges.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_GE(rtt[i], drain.reroute_rtt_min);
      EXPECT_LE(rtt[i], drain.reroute_rtt_max);
      EXPECT_GE(mult[i], flash.multiplier * (1.0 - flash.jitter));
      EXPECT_LE(mult[i], flash.multiplier * (1.0 + flash.jitter));
      EXPECT_GE(stretch[i], 0.85);
      EXPECT_LE(stretch[i], 1.15);
    }
    // Distinct sites and distinct keys draw decorrelated streams.
    EXPECT_NE(rtt[0], rtt[1]);
    EXPECT_NE(mult[0], mult[1]);
    EXPECT_NE(stretch[0], stretch[1]);

    // A different delta of the same type gets its own stream: the draw is
    // keyed on delta content, not list position.
    DrainDelta other = drain;
    other.start_window = 9;
    EXPECT_NE(drain_reroute_rtt(seed, drain, keys[0]),
              drain_reroute_rtt(seed, other, keys[0]));
    // ...but content equality means draw equality regardless of identity.
    const DrainDelta clone = drain;
    EXPECT_EQ(drain_reroute_rtt(seed, drain, keys[0]),
              drain_reroute_rtt(seed, clone, keys[0]));
  }

  // Jitter-free flash crowds never touch an RNG stream.
  FlashCrowdDelta flat = flash;
  flat.jitter = 0.0;
  for (const std::uint64_t k : keys) {
    EXPECT_EQ(flash_session_multiplier(123, flat, k), flat.multiplier);
  }
}

// ---------------------------------------------------------------------------
// Composition: config order never matters.
// ---------------------------------------------------------------------------

TEST(ScenarioApply, CompositionIsOrderInvariant) {
  const World world = build_world(small_world());

  const char* forward = R"([scenario]
name = combo
seed = 11

[drain]
pop = EU-pop1
start_window = 8
end_window = 24

[drain]
pop = NA-pop2
start_window = 40
end_window = 48

[depref]
asn = 3356
continent = all

[flash_crowd]
country = 100
multiplier = 4
jitter = 0.2

[cable_cut]
continents = EU-AF
extra_rtt_ms = 80
start_window = 0
end_window = 96
)";
  const char* reversed = R"([scenario]
name = combo
seed = 11

[cable_cut]
continents = AF-EU
extra_rtt_ms = 80
start_window = 0
end_window = 96

[flash_crowd]
country = 100
multiplier = 4
jitter = 0.2

[depref]
asn = 3356
continent = all

[drain]
pop = NA-pop2
start_window = 40
end_window = 48

[drain]
pop = EU-pop1
start_window = 8
end_window = 24
)";

  FaultCounters ca, cb;
  const World wa = apply_scenario(world, parse_ok(forward), &ca);
  const World wb = apply_scenario(world, parse_ok(reversed), &cb);
  EXPECT_EQ(world_digest(wa), world_digest(wb));
  EXPECT_EQ(ca.scenario_drained_groups, cb.scenario_drained_groups);
  EXPECT_EQ(ca.scenario_depref_groups, cb.scenario_depref_groups);
  EXPECT_EQ(ca.scenario_flash_groups, cb.scenario_flash_groups);
  EXPECT_EQ(ca.scenario_cable_cut_groups, cb.scenario_cable_cut_groups);
  // The combo must actually perturb something, or this test is vacuous.
  EXPECT_GT(ca.scenario_drained_groups + ca.scenario_depref_groups +
                ca.scenario_flash_groups,
            0u);

  // End-to-end: both orders produce the same verdict at any thread count.
  const DatasetConfig dc = small_dataset();
  const auto ra = run_edge_analysis(world, dc, {}, {}, {}, threads(1),
                                    nullptr, {}, {}, parse_ok(forward));
  const auto rb = run_edge_analysis(world, dc, {}, {}, {}, threads(4),
                                    nullptr, {}, {}, parse_ok(reversed));
  EXPECT_EQ(whatif_report(ra).verdict_hash, whatif_report(rb).verdict_hash);
}

// ---------------------------------------------------------------------------
// Golden fixtures: pinned verdict hashes, reproduced at any thread count.
// ---------------------------------------------------------------------------

std::uint64_t pinned_verdict(const std::string& text) {
  const std::string tag = "# golden-verdict: ";
  const std::size_t at = text.find(tag);
  EXPECT_NE(at, std::string::npos) << "fixture lacks a golden-verdict line";
  return std::strtoull(text.c_str() + at + tag.size(), nullptr, 16);
}

TEST(ScenarioGolden, FixturesReproducePinnedVerdicts) {
  const World world = build_world(golden_world());
  const DatasetConfig dc = golden_dataset();
  const std::string dir = std::string(FBEDGE_TEST_DATA_DIR) + "/scenarios/";
  const char* fixtures[] = {"empty.conf", "drain-eu-peak.conf",
                            "depref-3356-flash.conf", "cable-cut-eu-af.conf"};
  for (const char* name : fixtures) {
    SCOPED_TRACE(name);
    const std::string text = read_file(dir + name);
    const std::uint64_t want = pinned_verdict(text);
    const ScenarioPack pack = parse_ok(text);
    for (const int n : {1, 4}) {
      const auto result = run_edge_analysis(world, dc, {}, {}, {},
                                            threads(n), nullptr, {}, {}, pack);
      EXPECT_EQ(whatif_report(result).verdict_hash, want) << "threads=" << n;
    }
  }
}

// The empty fixture's pinned verdict doubles as the baseline's: a run that
// never mentions scenarios must land on the same golden hash.
TEST(ScenarioGolden, BaselineMatchesEmptyFixtureVerdict) {
  const World world = build_world(golden_world());
  const std::string text = read_file(std::string(FBEDGE_TEST_DATA_DIR) +
                                     "/scenarios/empty.conf");
  const auto baseline =
      run_edge_analysis(world, golden_dataset(), {}, {}, {}, threads(4));
  EXPECT_EQ(whatif_report(baseline).verdict_hash, pinned_verdict(text));
}

// ---------------------------------------------------------------------------
// Counters: every applied (group, delta) is counted, and only those.
// ---------------------------------------------------------------------------

TEST(ScenarioApply, DrainCountsEveryServedGroupExactly) {
  const World world = build_world(small_world());
  ScenarioPack p;
  p.seed = 5;
  DrainDelta d;
  d.pop = "EU-pop1";
  d.start_window = 8;
  d.end_window = 24;
  p.drains.push_back(d);

  // Recount outside the pipeline: groups served by the drained PoP.
  PopId pop_id{};
  for (const auto& pop : world.pops) {
    if (pop.name == d.pop) pop_id = pop.id;
  }
  std::uint64_t served = 0;
  for (const auto& g : world.groups) {
    if (g.key.pop == pop_id) ++served;
  }
  ASSERT_GT(served, 0u);

  FaultCounters counters;
  const World out = apply_scenario(world, p, &counters);
  EXPECT_EQ(counters.scenario_drained_groups, served);
  EXPECT_EQ(counters.scenario_depref_groups, 0u);
  EXPECT_EQ(counters.scenario_flash_groups, 0u);
  EXPECT_EQ(counters.scenario_cable_cut_groups, 0u);

  // Each drained group gained exactly one destination-side episode with
  // the pure per-group reroute RTT; everyone else is untouched.
  for (std::size_t i = 0; i < world.groups.size(); ++i) {
    const auto& before = world.groups[i];
    const auto& after = out.groups[i];
    if (before.key.pop == pop_id) {
      ASSERT_EQ(after.episodes.size(), before.episodes.size() + 1);
      const Episode& e = after.episodes.back();
      EXPECT_EQ(e.start_window, d.start_window);
      EXPECT_EQ(e.end_window, d.end_window);
      EXPECT_EQ(e.route_index, -1);
      EXPECT_EQ(e.extra_delay,
                drain_reroute_rtt(p.seed, d, group_fault_key(before.key)));
      EXPECT_EQ(e.extra_loss, d.reroute_loss);
    } else {
      EXPECT_EQ(after.episodes.size(), before.episodes.size());
    }
  }
}

TEST(ScenarioApply, FlashCrowdScalesArrivalsForItsCountryOnly) {
  const World world = build_world(small_world());
  // Pick a country that actually exists in the world.
  const std::uint32_t country = world.groups.front().key.country.value;
  ScenarioPack p;
  p.seed = 5;
  FlashCrowdDelta f;
  f.country = country;
  f.multiplier = 6.0;
  f.jitter = 0.3;
  p.flash_crowds.push_back(f);

  std::uint64_t expect_hits = 0;
  for (const auto& g : world.groups) {
    if (g.key.country.value == country) ++expect_hits;
  }
  ASSERT_GT(expect_hits, 0u);

  FaultCounters counters;
  const World out = apply_scenario(world, p, &counters);
  EXPECT_EQ(counters.scenario_flash_groups, expect_hits);
  for (std::size_t i = 0; i < world.groups.size(); ++i) {
    const auto& before = world.groups[i];
    const auto& after = out.groups[i];
    if (before.key.country.value == country) {
      EXPECT_EQ(after.sessions_per_window,
                before.sessions_per_window *
                    flash_session_multiplier(p.seed, f,
                                             group_fault_key(before.key)));
    } else {
      EXPECT_EQ(after.sessions_per_window, before.sessions_per_window);
    }
    // No congestion window configured -> no new episodes anywhere.
    EXPECT_EQ(after.episodes.size(), before.episodes.size());
  }
}

TEST(ScenarioApply, DepreferReordersRoutesAndRemapsEpisodes) {
  const World world = build_world(small_world());

  // Find a group whose preferred route is transit so the depref bites.
  const UserGroupProfile* victim = nullptr;
  for (const auto& g : world.groups) {
    if (!g.routes.empty() &&
        g.routes[0].route.relationship == Relationship::kTransit &&
        !g.routes[0].route.as_path.empty()) {
      victim = &g;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "world has no transit-preferred group";
  const std::uint32_t asn = victim->routes[0].route.as_path.front();

  ScenarioPack p;
  DepreferDelta d;
  d.asn = asn;
  d.all_continents = true;
  p.deprefs.push_back(d);

  FaultCounters counters;
  const World out = apply_scenario(world, p, &counters);
  EXPECT_GT(counters.scenario_depref_groups, 0u);

  for (std::size_t i = 0; i < world.groups.size(); ++i) {
    const auto& before = world.groups[i];
    const auto& after = out.groups[i];
    ASSERT_EQ(after.routes.size(), before.routes.size());
    // No demoted route may rank above a kept one.
    bool seen_demoted = false;
    for (const auto& r : after.routes) {
      const bool demoted =
          r.route.relationship == Relationship::kTransit &&
          !r.route.as_path.empty() && r.route.as_path.front() == asn;
      if (demoted) seen_demoted = true;
      EXPECT_FALSE(seen_demoted && !demoted)
          << "demoted route ranked above a kept route";
    }
    // Route-scoped episodes still point at the same physical route.
    ASSERT_EQ(after.episodes.size(), before.episodes.size());
    for (std::size_t e = 0; e < before.episodes.size(); ++e) {
      const int bidx = before.episodes[e].route_index;
      const int aidx = after.episodes[e].route_index;
      if (bidx < 0) {
        EXPECT_EQ(aidx, bidx);
      } else {
        EXPECT_EQ(after.routes[aidx].route.as_path.empty()
                      ? 0u
                      : after.routes[aidx].route.as_path.front(),
                  before.routes[bidx].route.as_path.empty()
                      ? 0u
                      : before.routes[bidx].route.as_path.front());
        EXPECT_EQ(after.routes[aidx].rtt_offset,
                  before.routes[bidx].rtt_offset);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental sweep: footprint exactness and splice equivalence.
// ---------------------------------------------------------------------------

// Digest of one group's ingest-relevant structure (the per-group slice of
// world_digest). Equal digests mean the generator sees identical input —
// and per-group ingest is seeded from the group key alone, so the blobs
// are identical too.
std::uint64_t group_digest(const UserGroupProfile& g) {
  Fnv64 h;
  h.u64(group_fault_key(g.key));
  h.f64(g.sessions_per_window);
  h.u64(g.routes.size());
  for (const auto& r : g.routes) {
    h.u64(r.route.as_path.size());
    for (const std::uint32_t asn : r.route.as_path) h.u32(asn);
    h.f64(r.rtt_offset);
    h.f64(r.base_loss);
  }
  h.u64(g.episodes.size());
  for (const auto& e : g.episodes) {
    h.i64(e.start_window);
    h.i64(e.end_window);
    h.i64(e.route_index);
    h.f64(e.extra_delay);
    h.f64(e.extra_loss);
  }
  return h.value();
}

const std::string& pop_name(const World& world, PopId id) {
  for (const auto& pop : world.pops) {
    if (pop.id == id) return pop.name;
  }
  ADD_FAILURE() << "unknown pop id";
  static const std::string kNone;
  return kNone;
}

// One delta of every kind, targets cycled by `seed` so 100 iterations walk
// many distinct footprints.
ScenarioPack seeded_pack(const World& world, std::uint64_t seed) {
  constexpr std::uint32_t kTier1[] = {3356, 1299, 174, 2914, 6762, 3257};
  const std::size_t n = world.groups.size();
  ScenarioPack pack;
  pack.seed = seed;
  DrainDelta drain;
  drain.pop = pop_name(world, world.groups[seed % n].key.pop);
  drain.start_window = 0;
  drain.end_window = 96;
  drain.reroute_rtt_min = 0.020;
  drain.reroute_rtt_max = 0.045;
  drain.reroute_loss = 0.002;
  pack.drains.push_back(drain);
  DepreferDelta depref;
  depref.asn = kTier1[seed % (sizeof(kTier1) / sizeof(kTier1[0]))];
  depref.all_continents = true;
  pack.deprefs.push_back(depref);
  FlashCrowdDelta flash;
  flash.country = world.groups[(seed * 7 + 3) % n].key.country.value;
  flash.multiplier = 4.0;
  pack.flash_crowds.push_back(flash);
  CableCutDelta cut;
  cut.a = world.groups[(seed * 5 + 1) % n].continent;
  cut.b = cut.a == Continent::kEurope ? Continent::kAfrica : Continent::kEurope;
  cut.extra_rtt = 0.060;
  cut.extra_loss = 0.002;
  cut.start_window = 0;
  cut.end_window = 96;
  pack.cable_cuts.push_back(cut);
  return pack;
}

TEST(ScenarioSweep, HundredSeedsFootprintIsExactOnGroupStructure) {
  // golden_world rather than small_world: the 2-group-per-continent world
  // has no remote-served groups, so cable cuts could never fire. All
  // checks here are structural (no ingest), so the bigger world is cheap.
  const World world = build_world(golden_world());
  const std::size_t n = world.groups.size();
  std::vector<std::uint64_t> baseline_digests(n);
  for (std::size_t g = 0; g < n; ++g) {
    baseline_digests[g] = group_digest(world.groups[g]);
  }

  bool saw_drain = false, saw_depref = false, saw_flash = false,
       saw_cut = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const ScenarioPack pack = seeded_pack(world, seed);
    const std::vector<std::size_t> affected = affected_groups(world, pack);
    ASSERT_FALSE(affected.empty());
    std::vector<bool> inside(n, false);
    for (const std::size_t g : affected) inside[g] = true;

    FaultCounters applied;
    const World perturbed = apply_scenario(world, pack, &applied);
    saw_drain = saw_drain || applied.scenario_drained_groups > 0;
    saw_depref = saw_depref || applied.scenario_depref_groups > 0;
    saw_flash = saw_flash || applied.scenario_flash_groups > 0;
    saw_cut = saw_cut || applied.scenario_cable_cut_groups > 0;

    for (std::size_t g = 0; g < n; ++g) {
      if (inside[g]) {
        // Exact, not just conservative: every group the footprint names
        // was actually perturbed.
        EXPECT_NE(group_digest(perturbed.groups[g]), baseline_digests[g])
            << "seed " << seed << " group " << g
            << " inside the footprint but structurally untouched";
      } else {
        EXPECT_EQ(group_digest(perturbed.groups[g]), baseline_digests[g])
            << "seed " << seed << " group " << g
            << " outside the footprint but perturbed";
      }
    }
  }
  EXPECT_TRUE(saw_drain && saw_depref && saw_flash && saw_cut)
      << "100 seeds never exercised some delta kind";
}

TEST(ScenarioSweep, OutsideBlobsBitwiseIdenticalInsideBlobsDiffer) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::size_t n = world.groups.size();
  std::vector<std::size_t> all_groups(n);
  for (std::size_t g = 0; g < n; ++g) all_groups[g] = g;

  const auto ingest_all = [&](const World& w) {
    std::vector<std::string> blobs(n);
    ingest_groups_to_blobs(w, dc, {}, all_groups, threads(1),
                           [&](std::size_t g, std::string&& blob) {
                             blobs[g] = std::move(blob);
                           });
    return blobs;
  };
  const std::vector<std::string> baseline = ingest_all(world);

  // The ingest-level twin of the digest property, on a few seeds (ingest
  // is the expensive part): under the perturbed world, every group outside
  // affected_groups() produces a bitwise-identical artifact blob, and for
  // each delta kind at least one group inside produces a different one.
  for (const std::uint64_t seed : {5ull, 21ull, 64ull}) {
    const ScenarioPack pack = seeded_pack(world, seed);
    const std::vector<std::size_t> affected = affected_groups(world, pack);
    std::vector<bool> inside(n, false);
    for (const std::size_t g : affected) inside[g] = true;
    const World perturbed = apply_scenario(world, pack);
    const std::vector<std::string> blobs = ingest_all(perturbed);

    const ScenarioFootprint fp = scenario_footprint(world, pack);
    bool drain_differs = false, flash_differs = false, cut_differs = false,
         depref_differs = false;
    for (std::size_t g = 0; g < n; ++g) {
      if (!inside[g]) {
        EXPECT_EQ(blobs[g], baseline[g])
            << "seed " << seed << " group " << g
            << " outside the footprint but its blob changed";
        continue;
      }
      if (blobs[g] == baseline[g]) continue;
      const auto& group = world.groups[g];
      for (const PopId pop : fp.drain_pops) {
        if (group.key.pop == pop) drain_differs = true;
      }
      for (const std::uint32_t country : fp.flash_countries) {
        if (group.key.country.value == country) flash_differs = true;
      }
      if (!fp.cut_paths.empty() && group.remote_served) cut_differs = true;
      if (!fp.depref_routes.empty()) depref_differs = true;
    }
    EXPECT_TRUE(flash_differs) << "seed " << seed;
    EXPECT_TRUE(drain_differs) << "seed " << seed;
    EXPECT_TRUE(depref_differs) << "seed " << seed;
    (void)cut_differs;  // corridor may legitimately be empty for a seed
  }
}

TEST(ScenarioSweep, SweepVerdictsMatchIndependentRunsAtAnyThreadCount) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();

  std::vector<ScenarioPack> packs;
  packs.push_back(seeded_pack(world, 9));
  {
    ScenarioPack flash_only;
    flash_only.seed = 13;
    FlashCrowdDelta flash;
    flash.country = world.groups.front().key.country.value;
    flash.multiplier = 6.0;
    flash.jitter = 0.1;
    flash_only.flash_crowds.push_back(flash);
    packs.push_back(flash_only);
  }
  packs.push_back(ScenarioPack{});  // empty pack: zero recomputed groups

  // Independent full runs, once, at one thread: the reference verdicts.
  const std::uint64_t base_hash =
      whatif_report(run_edge_analysis(world, dc, {}, {}, {}, threads(1)))
          .verdict_hash;
  std::vector<std::uint64_t> want;
  for (const auto& pack : packs) {
    want.push_back(whatif_report(run_edge_analysis(world, dc, {}, {}, {},
                                                   threads(1), nullptr, {}, {},
                                                   pack))
                       .verdict_hash);
  }

  for (const int n : {1, 4}) {
    const SweepOutcome outcome =
        run_scenario_sweep(world, dc, {}, {}, {}, packs, threads(n));
    EXPECT_EQ(whatif_report(outcome.baseline).verdict_hash, base_hash);
    ASSERT_EQ(outcome.scenarios.size(), packs.size());
    for (std::size_t k = 0; k < packs.size(); ++k) {
      EXPECT_EQ(whatif_report(outcome.scenarios[k].result).verdict_hash,
                want[k])
          << "pack " << k << " at " << n << " threads";
      const auto& faults = outcome.scenarios[k].result.faults;
      EXPECT_EQ(faults.scenario_groups_reused +
                    faults.scenario_groups_recomputed,
                world.groups.size());
    }
    // The empty pack reuses everything.
    EXPECT_EQ(
        outcome.scenarios.back().result.faults.scenario_groups_recomputed, 0u);
  }
}

// ---------------------------------------------------------------------------
// One-pass sweep schedule: every scenario's affected groups run in one pool
// pass with the baseline, heaviest first, and each result must still be
// filed under its own (scenario, affected index).
// ---------------------------------------------------------------------------

// Packs whose footprints overlap, each covering at least two groups of
// small_world, with the first pack listed twice. A schedule that filed a
// partial by task order instead of by affected index would swap groups
// between scenarios or within a multi-group pack.
std::vector<ScenarioPack> overlapping_packs(const World& world) {
  std::vector<ScenarioPack> packs;
  packs.push_back(seeded_pack(world, 9));
  packs.push_back(seeded_pack(world, 12));
  // A drain of the first PoP that serves two groups, plus a flash crowd in
  // the second group's country: the heaviest task of the pass.
  const std::size_t n = world.groups.size();
  for (std::size_t a = 0; a < n && packs.size() < 3; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (world.groups[b].key.pop != world.groups[a].key.pop) continue;
      ScenarioPack drain_flash;
      drain_flash.seed = 13;
      DrainDelta drain;
      drain.pop = pop_name(world, world.groups[a].key.pop);
      drain.start_window = 8;
      drain.end_window = 40;
      drain.reroute_rtt_min = 0.020;
      drain.reroute_rtt_max = 0.045;
      drain.reroute_loss = 0.002;
      drain_flash.drains.push_back(drain);
      FlashCrowdDelta flash;
      flash.country = world.groups[b].key.country.value;
      flash.multiplier = 6.0;
      flash.jitter = 0.1;
      drain_flash.flash_crowds.push_back(flash);
      packs.push_back(drain_flash);
      break;
    }
  }
  packs.push_back(packs.front());
  return packs;
}

std::uint64_t verdict(const EdgeAnalysisResult& r) {
  return whatif_report(r).verdict_hash;
}

// Baseline verdict followed by one independent run_edge_analysis verdict
// per pack: the reference every sweep must reproduce.
std::vector<std::uint64_t> independent_verdicts(
    const World& world, const DatasetConfig& dc,
    const std::vector<ScenarioPack>& packs) {
  std::vector<std::uint64_t> want{
      verdict(run_edge_analysis(world, dc, {}, {}, {}, threads(1)))};
  for (const ScenarioPack& pack : packs) {
    want.push_back(verdict(run_edge_analysis(world, dc, {}, {}, {}, threads(1),
                                             nullptr, {}, {}, pack)));
  }
  return want;
}

std::vector<std::uint64_t> sweep_verdicts(const SweepOutcome& outcome) {
  std::vector<std::uint64_t> got{verdict(outcome.baseline)};
  for (const SweepScenarioResult& scen : outcome.scenarios) {
    got.push_back(verdict(scen.result));
  }
  return got;
}

TEST(ScenarioSweep, OnePassFilesOverlappingPacksByScenarioAtAnyThreadCount) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::size_t n = world.groups.size();
  const std::vector<ScenarioPack> packs = overlapping_packs(world);

  std::vector<std::vector<std::size_t>> affected;
  std::size_t affected_total = 0;
  for (const ScenarioPack& pack : packs) {
    affected.push_back(affected_groups(world, pack));
    ASSERT_GE(affected.back().size(), 2u) << "every pack covers >= 2 groups";
    affected_total += affected.back().size();
  }
  for (std::size_t k = 0; k < packs.size(); ++k) {
    bool overlaps = false;
    for (std::size_t j = 0; j < packs.size(); ++j) {
      if (j == k) continue;
      for (const std::size_t g : affected[k]) {
        overlaps = overlaps || std::find(affected[j].begin(), affected[j].end(),
                                         g) != affected[j].end();
      }
    }
    EXPECT_TRUE(overlaps) << "pack " << k << " overlaps no other pack";
  }

  const std::vector<std::uint64_t> want =
      independent_verdicts(world, dc, packs);
  for (const int t : {1, 2, 3, 4}) {
    RunStats stats;
    const SweepOutcome outcome =
        run_scenario_sweep(world, dc, {}, {}, {}, packs, threads(t), &stats);
    EXPECT_EQ(sweep_verdicts(outcome), want) << t << " threads";
    ASSERT_EQ(outcome.scenarios.size(), packs.size());
    for (std::size_t k = 0; k < packs.size(); ++k) {
      EXPECT_EQ(outcome.scenarios[k].affected, affected[k]) << k;
    }
    // One pool pass: the baseline groups plus every affected pair.
    EXPECT_EQ(stats.tasks, n + affected_total) << t << " threads";
  }
}

// Verdict hashes read sorted copies of the CDFs and every sum the fold makes
// is exact in any order, so only the points' storage order shows the merge
// sequence: each world's fold must run in group-id order, as an
// independent run's does, whatever order the pass dealt its tasks in.
TEST(ScenarioSweep, EveryFoldMergesInGroupIdOrder) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::vector<ScenarioPack> packs = overlapping_packs(world);
  const SweepOutcome outcome =
      run_scenario_sweep(world, dc, {}, {}, {}, packs, threads(3));
  const auto expect_same_order = [](const EdgeAnalysisResult& want,
                                    const EdgeAnalysisResult& got) {
    for (const auto cdf : {&EdgeAnalysisResult::degr_rtt, &EdgeAnalysisResult::opp_rtt}) {
      const auto& a = (want.*cdf).points();
      const auto& b = (got.*cdf).points();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].value, b[i].value) << "point " << i;
        EXPECT_EQ(a[i].weight, b[i].weight) << "point " << i;
      }
    }
  };
  expect_same_order(run_edge_analysis(world, dc, {}, {}, {}, threads(1)),
                    outcome.baseline);
  ASSERT_EQ(outcome.scenarios.size(), packs.size());
  for (std::size_t k = 0; k < packs.size(); ++k) {
    SCOPED_TRACE(packs[k].name);
    expect_same_order(run_edge_analysis(world, dc, {}, {}, {}, threads(1), nullptr,
                                        {}, {}, packs[k]),
                      outcome.scenarios[k].result);
  }
}

TEST(ScenarioSweep, FleetHookIsCalledOncePerNonEmptyScenario) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  std::vector<ScenarioPack> packs = overlapping_packs(world);
  packs.insert(packs.begin() + 1, ScenarioPack{});  // affects nothing

  // A fake fleet: it serves the blob of every even affected position and
  // leaves the odd ones empty (cold ingest in the pass).
  struct Call {
    std::size_t scenario;
    std::vector<std::size_t> affected;
  };
  std::vector<Call> calls;
  const SweepAffectedBlobFn hook =
      [&](std::size_t k, const ScenarioPack& pack, const World& perturbed,
          const std::vector<std::size_t>& groups,
          std::vector<std::string>& blobs) {
        calls.push_back({k, groups});
        EXPECT_EQ(serialize_scenario(pack), serialize_scenario(packs[k]));
        blobs.assign(groups.size(), std::string());
        std::vector<std::size_t> even;
        for (std::size_t i = 0; i < groups.size(); i += 2) {
          even.push_back(groups[i]);
        }
        std::size_t at = 0;
        ingest_groups_to_blobs(perturbed, dc, {}, even, threads(1),
                               [&](std::size_t, std::string&& blob) {
                                 blobs[2 * at++] = std::move(blob);
                               });
        return true;
      };

  const std::vector<std::uint64_t> want =
      independent_verdicts(world, dc, packs);
  const SweepOutcome outcome = run_scenario_sweep(
      world, dc, {}, {}, {}, packs, threads(3), nullptr, {}, {}, hook);
  EXPECT_EQ(sweep_verdicts(outcome), want);

  std::vector<std::size_t> non_empty;
  for (std::size_t k = 0; k < packs.size(); ++k) {
    if (!affected_groups(world, packs[k]).empty()) non_empty.push_back(k);
  }
  ASSERT_EQ(calls.size(), non_empty.size());
  for (std::size_t c = 0; c < calls.size(); ++c) {
    EXPECT_EQ(calls[c].scenario, non_empty[c]);
    EXPECT_EQ(calls[c].affected,
              affected_groups(world, packs[calls[c].scenario]));
    EXPECT_TRUE(std::adjacent_find(calls[c].affected.begin(),
                                   calls[c].affected.end(),
                                   std::greater_equal<>()) ==
                calls[c].affected.end())
        << "affected list not strictly ascending";
  }
}

std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fbedge-scenario-" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// XORs one byte of a file in place (same inode, so an open reader sees it).
void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5a));
  ASSERT_TRUE(f.good());
}

TEST(ScenarioSweep, WarmBaselineIsServedWholeOrNotAtAll) {
  const World world = build_world(small_world());
  const DatasetConfig dc = small_dataset();
  const std::size_t n = world.groups.size();
  const std::vector<ScenarioPack> packs = overlapping_packs(world);
  const std::vector<std::uint64_t> cold = sweep_verdicts(
      run_scenario_sweep(world, dc, {}, {}, {}, packs, threads(2)));

  const IngestCacheOptions cache{fresh_cache_dir("sweep-warm")};
  run_edge_analysis(world, dc, {}, {}, {}, threads(2), nullptr, {}, cache);

  RunStats warm_stats;
  const SweepOutcome warm = run_scenario_sweep(
      world, dc, {}, {}, {}, packs, threads(2), &warm_stats, {}, cache);
  EXPECT_EQ(sweep_verdicts(warm), cold);
  EXPECT_EQ(warm_stats.cache_hits, n);
  EXPECT_EQ(warm_stats.cache_misses, 0u);
  EXPECT_EQ(warm_stats.cache_write_failures, 0u);

  // The fleet hook runs before the pass: flip one byte of blob 1 there.
  // Only group 1's task finds it, and the baseline is served whole or not
  // at all, so the baseline reruns cold and the artifact is rewritten. The
  // rerun redoes the n baseline tasks alone: the scenario results of the
  // warm pass do not depend on the artifact.
  const std::uint64_t key = ingest_cache_key(world, dc, {});
  const std::string path = ingest_artifact_path(cache.dir, key);
  std::size_t blob1_offset = 28;  // header: magic, epoch, key, count
  std::size_t blob1_size = 0;
  {
    IngestArtifactReader reader;
    ASSERT_TRUE(reader.open_index(path, key, n));
    std::string blob;
    ASSERT_TRUE(reader.read(0, blob));
    blob1_offset += blob.size();
    ASSERT_TRUE(reader.read(1, blob));
    blob1_size = blob.size();
  }
  bool flipped = false;
  const SweepAffectedBlobFn flip_once =
      [&](std::size_t, const ScenarioPack&, const World&,
          const std::vector<std::size_t>&, std::vector<std::string>&) {
        if (!flipped) flip_byte(path, blob1_offset + blob1_size / 2);
        flipped = true;
        return false;
      };
  RunStats flipped_stats;
  const SweepOutcome degraded =
      run_scenario_sweep(world, dc, {}, {}, {}, packs, threads(2),
                         &flipped_stats, {}, cache, flip_once);
  ASSERT_TRUE(flipped);
  EXPECT_EQ(sweep_verdicts(degraded), cold);
  EXPECT_EQ(flipped_stats.cache_hits, 0u);
  EXPECT_EQ(flipped_stats.cache_misses, n);
  EXPECT_EQ(flipped_stats.cache_write_failures, 0u);
  EXPECT_EQ(flipped_stats.tasks, warm_stats.tasks + n);

  RunStats again;
  EXPECT_EQ(sweep_verdicts(run_scenario_sweep(world, dc, {}, {}, {}, packs,
                                              threads(2), &again, {}, cache)),
            cold);
  EXPECT_EQ(again.cache_hits, n);
  EXPECT_EQ(again.cache_misses, 0u);
}

}  // namespace
}  // namespace fbedge
