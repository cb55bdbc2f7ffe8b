// Integration tests for deadlock detection (probing, §3.2.2) and recovery
// via retransmission buffers (§3.2.1).
//
// The canonical scenario: a 2x2 mesh, ONE virtual channel, minimal
// fully-adaptive routing, and four streams that form a cyclic channel
// dependency:
//
//     0 --E--> 1        A: 0->3 (E then S)    holds E(0,1), wants S(1,3)
//     ^        |        B: 1->2 (S then W)    holds S(1,3), wants W(3,2)
//     N        S        C: 3->0 (W then N)    holds W(3,2), wants N(2,0)
//     |        v        D: 2->1 (N then E)    holds N(2,0), wants E(0,1)
//     2 <--W-- 3
//
// With enough packets per stream the four wormholes close the cycle and no
// flit can ever advance — a true deadlock.

#include <gtest/gtest.h>

#include <algorithm>

#include "noc/simulator.hpp"

namespace ftnoc {
namespace {

SimConfig deadlock_config() {
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 1;
  cfg.vc_buffer_depth = 4;
  cfg.packet_length = 4;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.injection_rate = 0.0;  // Manual injection.
  cfg.warmup_messages = 0;
  cfg.total_messages = 4 * 8;
  cfg.max_cycles = 30'000;
  cfg.deadlock.probe_threshold = 24;
  cfg.deadlock.probe_backoff = 16;
  return cfg;
}

void inject_cyclic_streams(Network& net, int packets_per_stream) {
  // Diagonal destinations: each stream's two minimal directions intersect
  // the next stream's path. The adaptive router may initially pick either
  // dimension, but with single-VC contention the cyclic hold pattern
  // forms within a few packets.
  for (int i = 0; i < packets_per_stream; ++i) {
    net.inject_packet(0, 3, 4);
    net.inject_packet(1, 2, 4);
    net.inject_packet(3, 0, 4);
    net.inject_packet(2, 1, 4);
  }
}

TEST(IntegrationDeadlock, AdaptiveSingleVcDeadlocksWithoutRecovery) {
  SimConfig cfg = deadlock_config();
  cfg.deadlock.enable_recovery = false;
  Simulator sim(cfg);
  inject_cyclic_streams(sim.network(), 8);
  const SimResults r = sim.run();
  // The network wedges: the run times out with messages still stuck.
  EXPECT_FALSE(r.completed);
}

TEST(IntegrationDeadlock, RecoveryBreaksTheDeadlock) {
  SimConfig cfg = deadlock_config();
  cfg.deadlock.enable_recovery = true;
  Simulator sim(cfg);
  inject_cyclic_streams(sim.network(), 8);
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed) << "cycles=" << r.cycles
                           << " probes=" << r.probes_sent
                           << " confirmed=" << r.deadlocks_confirmed
                           << " absorbed=" << r.flits_absorbed;
  EXPECT_EQ(r.corrupted_delivered, 0u);
  EXPECT_GE(r.recoveries_entered, 1u);
  // The cycle2x2 figures EXPERIMENTS.md reports for this scenario.
  EXPECT_EQ(r.cycles, 133u);
  EXPECT_EQ(r.flits_absorbed, 29u);
  EXPECT_EQ(r.deadlocks_confirmed, 3u);
  EXPECT_EQ(r.probes_sent, 8u);
}

TEST(IntegrationDeadlock, XyRoutingNeverTriggersRecovery) {
  // Dimension-ordered routing is deadlock-free: the probing machinery may
  // run, but no probe can ever come back (no cyclic dependency exists), so
  // no recovery is entered — the no-false-positives property.
  SimConfig cfg = deadlock_config();
  cfg.routing = RoutingAlgorithm::kXY;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 8;  // Aggressive probing.
  Simulator sim(cfg);
  inject_cyclic_streams(sim.network(), 8);
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.deadlocks_confirmed, 0u);
  EXPECT_EQ(r.recoveries_entered, 0u);
  EXPECT_EQ(r.flits_absorbed, 0u);
}

TEST(IntegrationDeadlock, HighLoadUniformAdaptiveCompletesWithRecovery) {
  // Random traffic on a larger mesh with adaptive routing and few VCs:
  // deadlocks may or may not form depending on the seed, but with recovery
  // enabled the run must always drain.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 2;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.injection_rate = 0.35;
  cfg.warmup_messages = 500;
  cfg.total_messages = 4'000;
  cfg.max_cycles = 400'000;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 64;
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.corrupted_delivered, 0u);
}

TEST(IntegrationDeadlock, ProbeRouteMapStaysBounded) {
  // Regression: under congested-but-deadlock-free traffic most probes are
  // discarded downstream and never return, and the origin's probe-route
  // map used to keep one stale entry per unreturned probe for the rest of
  // the run. With per-mint reset and timeout GC the map can never hold
  // more than the single live probe.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 2;
  cfg.routing = RoutingAlgorithm::kXY;  // Deadlock-free: probes never return.
  cfg.injection_rate = 0.5;             // Past saturation: heavy blocking.
  cfg.warmup_messages = 200;
  cfg.total_messages = 2'000;
  cfg.max_cycles = 300'000;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 16;
  cfg.deadlock.probe_backoff = 8;
  Simulator sim(cfg);
  Network& net = sim.network();
  std::size_t max_entries = 0;
  for (int c = 0; c < 20'000; ++c) {
    net.step();
    for (NodeId n = 0; n < 16; ++n) {
      const std::size_t e = net.router(n).probe_route_entries();
      max_entries = std::max(max_entries, e);
      ASSERT_LE(e, 1u) << "node " << n << " cycle " << c;
    }
  }
  // Probing actually fired (otherwise the bound is vacuous).
  EXPECT_EQ(max_entries, 1u);
}

TEST(IntegrationDeadlock, ProbesWithoutDeadlockAreHarmless) {
  // Low threshold + congested but deadlock-free traffic: many probes fire,
  // all must be discarded (no false positives, §3.2.2).
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 2;
  cfg.routing = RoutingAlgorithm::kXY;
  cfg.injection_rate = 0.5;  // Past saturation: heavy blocking.
  cfg.warmup_messages = 200;
  cfg.total_messages = 2'000;
  cfg.max_cycles = 300'000;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 16;
  cfg.deadlock.probe_backoff = 8;
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.deadlocks_confirmed, 0u);
  EXPECT_EQ(r.recoveries_entered, 0u);
}

}  // namespace
}  // namespace ftnoc
