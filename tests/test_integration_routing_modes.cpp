// Integration tests for the escape-VC (Duato-style) deadlock-avoidance
// baseline and hard-fault (dead link) tolerance, including RT upsets that
// aim a head at a dead link.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/simulator.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc {
namespace {

// --- Escape-VC routing --------------------------------------------------------

TEST(EscapeRouting, CanonicalCycleCannotDeadlock) {
  // The same 2x2 four-stream scenario that wedges pure minimal-adaptive
  // routing with one VC. With the escape scheme (2 VCs: one adaptive, one
  // escape) and NO recovery machinery, it must drain — that is the whole
  // point of avoidance.
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 2;
  cfg.vc_buffer_depth = 4;
  cfg.routing = RoutingAlgorithm::kAdaptiveEscape;
  cfg.deadlock.enable_recovery = false;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 32;
  cfg.max_cycles = 30'000;
  Simulator sim(cfg);
  for (int i = 0; i < 8; ++i) {
    sim.network().inject_packet(0, 3, 4);
    sim.network().inject_packet(1, 2, 4);
    sim.network().inject_packet(3, 0, 4);
    sim.network().inject_packet(2, 1, 4);
  }
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.corrupted_delivered, 0u);
}

TEST(EscapeRouting, SustainedHighLoadNeverWedges) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 2;
  cfg.routing = RoutingAlgorithm::kAdaptiveEscape;
  cfg.deadlock.enable_recovery = false;
  cfg.injection_rate = 0.6;  // Past saturation.
  cfg.warmup_messages = 500;
  cfg.total_messages = 6'000;
  cfg.max_cycles = 300'000;
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.corrupted_delivered, 0u);
}

TEST(EscapeRouting, RequiresAtLeastTwoVcs) {
  SimConfig cfg;
  cfg.routing = RoutingAlgorithm::kAdaptiveEscape;
  cfg.num_vcs = 1;
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(EscapeRouting, LosesThroughputVsRecoveryAtSaturation) {
  // The paper's critique of escape-VC schemes: reserving a VC for the
  // deterministic escape subnetwork limits adaptivity. At saturation, the
  // recovery scheme (all VCs fully adaptive) should sustain at least as
  // much throughput as the escape scheme with the same VC count.
  SimConfig escape;
  escape.mesh_width = 4;
  escape.mesh_height = 4;
  escape.num_vcs = 2;
  escape.routing = RoutingAlgorithm::kAdaptiveEscape;
  escape.injection_rate = 0.8;
  escape.warmup_messages = 1'000;
  escape.total_messages = 8'000;
  escape.max_cycles = 400'000;

  SimConfig recovery = escape;
  recovery.routing = RoutingAlgorithm::kMinimalAdaptive;
  recovery.deadlock.enable_recovery = true;

  const SimResults re = run_simulation(escape);
  const SimResults rr = run_simulation(recovery);
  ASSERT_TRUE(re.completed && rr.completed);
  EXPECT_GE(rr.throughput_flits_node_cycle,
            re.throughput_flits_node_cycle * 0.9);
}

// --- Hard faults ---------------------------------------------------------------

TEST(HardFaults, AdaptiveRoutesAroundDeadLink) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.injection_rate = 0.1;
  cfg.warmup_messages = 300;
  cfg.total_messages = 3'000;
  cfg.max_cycles = 400'000;
  // Kill the link between node 5 and node 6 (interior, heavily used).
  cfg.dead_links.push_back({5, Direction::kEast});
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.corrupted_delivered, 0u);
}

TEST(HardFaults, SingleRowPathForcesNonMinimalDetour) {
  // Source and destination share a row and the only minimal path crosses
  // the dead link: the router must detour non-minimally.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 10;
  cfg.max_cycles = 50'000;
  cfg.dead_links.push_back({5, Direction::kEast});  // 5 -> 6 dead.
  Simulator sim(cfg);
  for (int i = 0; i < 10; ++i) {
    sim.network().inject_packet(4, 7, 4);  // Row 1: passes 5 -> 6 minimally.
  }
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.hard_fault_reroutes, 0u);
}

TEST(HardFaults, EscapeRoutingAlsoSurvivesDeadLinks) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 3;
  cfg.routing = RoutingAlgorithm::kAdaptiveEscape;
  cfg.injection_rate = 0.1;
  cfg.warmup_messages = 200;
  cfg.total_messages = 2'000;
  cfg.max_cycles = 400'000;
  cfg.dead_links.push_back({9, Direction::kNorth});
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.corrupted_delivered, 0u);
}

TEST(HardFaults, ValidationRejectsBadDeadLink) {
  SimConfig cfg;
  cfg.dead_links.push_back({200, Direction::kEast});  // Out of range.
  EXPECT_TRUE(cfg.validate().has_value());
  cfg.dead_links.clear();
  cfg.dead_links.push_back({0, Direction::kLocal});
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(HardFaults, OverrideSyntaxParses) {
  SimConfig cfg;
  EXPECT_EQ(apply_override(cfg, "dead_link=5:E"), std::nullopt);
  EXPECT_EQ(apply_override(cfg, "dead_link=9:n"), std::nullopt);
  ASSERT_EQ(cfg.dead_links.size(), 2u);
  EXPECT_EQ(cfg.dead_links[0].first, 5);
  EXPECT_EQ(cfg.dead_links[0].second, Direction::kEast);
  EXPECT_EQ(cfg.dead_links[1].second, Direction::kNorth);
  EXPECT_TRUE(apply_override(cfg, "dead_link=5E").has_value());
  EXPECT_TRUE(apply_override(cfg, "dead_link=5:X").has_value());
}

TEST(HardFaults, DeadLinkWithLinkErrorsStillClean) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.protection = LinkProtection::kHbh;
  cfg.injection_rate = 0.1;
  cfg.warmup_messages = 200;
  cfg.total_messages = 2'000;
  cfg.max_cycles = 400'000;
  cfg.faults.link_error_rate = 0.01;
  cfg.dead_links.push_back({5, Direction::kEast});
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.corrupted_delivered, 0u);
  EXPECT_GT(r.link_errors_corrected, 0u);
}

// --- RT upsets aimed at dead links (§4.2) ------------------------------------
// Fault-aware routing offers live ports only, so only an upset routing
// computation can name a dead or draining port. The VA catches it like
// any other unusable direction and the RT re-routes; adaptive_faults has
// no effect.

SimConfig rt_upset_config(const std::vector<std::string>& extra) {
  SimConfig cfg;
  EXPECT_EQ(apply_overrides(cfg, extra), std::nullopt);
  return cfg;
}

// 16x16 adaptive mesh with eight staggered East cuts under RT upsets.
// Detouring such heads over any live port instead of re-routing them
// stopped delivery at 19,116 of 20,000 messages.
TEST(RtUpsetAtDeadLink, StaggerCutsOn16x16Complete) {
  std::vector<std::string> ov = {
      "mesh_width=16",        "mesh_height=16",      "routing=adaptive",
      "injection_rate=0.2",   "deadlock_recovery=1", "total_messages=20000",
      "warmup_messages=5000", "rt_error_rate=1e-3",  "max_cycles=12000"};
  for (const char* link : {"1:E", "18:E", "35:E", "52:E", "69:E", "86:E",
                           "103:E", "120:E"}) {
    ov.push_back(std::string("dead_link=") + link);
  }
  const SimResults r = run_simulation(rt_upset_config(ov));
  EXPECT_TRUE(r.completed) << r.messages_ejected << " ejected";
  EXPECT_GT(r.rt_errors_recovered, 0u);
}

// The optimized Router and the ReferenceRouter agree every cycle on a
// small faulted mesh where RT upsets often name a dead link, and the
// adaptive_faults key changes nothing.
TEST(RtUpsetAtDeadLink, ReferenceLockstepAndKeyHasNoEffect) {
  const std::vector<std::string> base = {
      "mesh_width=4",        "mesh_height=4",       "routing=adaptive",
      "injection_rate=0.15", "deadlock_recovery=1", "total_messages=1500",
      "warmup_messages=200", "rt_error_rate=5e-2",  "dead_link=5:E",
      "dead_link=10:S",      "check_invariants=1",  "max_cycles=100000"};
  std::vector<std::string> lines;
  for (const char* key : {"adaptive_faults=0", "adaptive_faults=1"}) {
    std::vector<std::string> ov = base;
    ov.push_back(key);
    const SimConfig cfg = rt_upset_config(ov);
    SimConfig ref_cfg = cfg;
    ref_cfg.use_reference_router = true;
    Network opt(cfg);
    Network ref(ref_cfg);
    opt.stats().begin_measurement(0);
    ref.stats().begin_measurement(0);
    for (Cycle c = 0; c < 3000; ++c) {
      opt.step();
      ref.step();
      ASSERT_EQ(opt.state_digest(), ref.state_digest())
          << key << ": routers diverged at cycle " << opt.now();
    }
    EXPECT_GT(opt.stats().rt_errors_recovered(), 0u) << key;
    EXPECT_EQ(opt.stats().rt_errors_recovered(),
              ref.stats().rt_errors_recovered())
        << key;

    // The same config to completion; both key values print under one
    // config so only the results can differ.
    sweep::PointResult pr;
    pr.config = rt_upset_config(base);
    pr.results = run_simulation(cfg);
    EXPECT_TRUE(pr.results.completed) << key;
    lines.push_back(sweep::to_jsonl(pr));
  }
  EXPECT_EQ(lines[0], lines[1]);
}

}  // namespace
}  // namespace ftnoc
