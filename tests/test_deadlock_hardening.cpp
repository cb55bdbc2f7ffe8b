// Tests for the deadlock-protocol hardenings layered on top of the paper's
// rules 1-4: probe expiry/retry, failed-probe tracking with the progress
// tracker, and the fallback self-recovery.

#include <gtest/gtest.h>

#include "core/deadlock.hpp"
#include "noc/simulator.hpp"

namespace ftnoc {
namespace {

TEST(ProbeExpiry, TimedOutProbeAllowsReprobe) {
  DeadlockAgent a(/*self=*/1, /*threshold=*/8, /*backoff=*/4,
                  /*timeout=*/16);
  a.make_probe(0, 0, 100);
  EXPECT_FALSE(a.should_probe(50, 110));  // Still live.
  EXPECT_TRUE(a.should_probe(50, 117));   // Expired (100+16 < 117).
}

TEST(ProbeExpiry, StaleReturnAfterReprobeIsIgnored) {
  DeadlockAgent a(1, 8, 4, 16);
  const ProbeSignal p1 = a.make_probe(0, 0, 100);
  ASSERT_TRUE(a.should_probe(50, 200));
  const ProbeSignal p2 = a.make_probe(0, 0, 200);
  EXPECT_FALSE(a.on_probe_returned(p1));  // Old probe: ignored.
  EXPECT_TRUE(a.on_probe_returned(p2));
}

TEST(FailedProbes, CountExpiredUnreturnedProbes) {
  DeadlockAgent a(1, 8, 4, 16);
  a.make_probe(0, 0, 100);
  EXPECT_EQ(a.failed_probes(), 0);
  a.make_probe(0, 0, 130);  // Previous expired unreturned.
  EXPECT_EQ(a.failed_probes(), 1);
  a.make_probe(0, 0, 160);
  EXPECT_EQ(a.failed_probes(), 2);
}

TEST(FailedProbes, ResetOnProgress) {
  DeadlockAgent a(1, 8, 4, 16);
  a.make_probe(0, 0, 100);
  a.make_probe(0, 0, 130);
  EXPECT_EQ(a.failed_probes(), 1);
  a.note_progress();
  EXPECT_EQ(a.failed_probes(), 0);
}

TEST(FailedProbes, ResetOnSuccessfulReturn) {
  DeadlockAgent a(1, 8, 4, 16);
  a.make_probe(0, 0, 100);
  const ProbeSignal p = a.make_probe(0, 0, 130);
  EXPECT_EQ(a.failed_probes(), 1);
  ASSERT_TRUE(a.on_probe_returned(p));
  EXPECT_EQ(a.failed_probes(), 0);
}

TEST(ProbeTtl, HopsFieldDefaultsToZero) {
  DeadlockAgent a(1, 8, 4);
  const ProbeSignal p = a.make_probe(2, 1, 10);
  EXPECT_EQ(p.hops, 0u);
}

TEST(FallbackRecovery, ProbesAloneBreakCanonicalCycle) {
  // Every origin of the canonical 2x2 cycle is on the cycle, so the probe
  // protocol proper confirms and breaks the deadlock before any router's
  // probes expire kFallbackProbeFailures times in a row.
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.num_vcs = 1;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 32;
  cfg.max_cycles = 30'000;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 24;
  cfg.deadlock.probe_backoff = 16;
  Simulator sim(cfg);
  for (int i = 0; i < 8; ++i) {
    sim.network().inject_packet(0, 3, 4);
    sim.network().inject_packet(1, 2, 4);
    sim.network().inject_packet(3, 0, 4);
    sim.network().inject_packet(2, 1, 4);
  }
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.deadlocks_confirmed, 0u);
  EXPECT_EQ(r.fallback_recoveries, 0u);
}

TEST(FallbackRecovery, SaturatedAdaptiveMakesProgressWithRecovery) {
  // Near the adaptive saturation point the recovery machinery (probes +
  // fallback + injection gate) must keep an 8x8 mesh flowing.
  SimConfig cfg;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.num_vcs = 2;
  cfg.injection_rate = 0.28;
  cfg.warmup_messages = 1'000;
  cfg.total_messages = 8'000;
  cfg.max_cycles = 400'000;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 16;
  cfg.deadlock.probe_backoff = 9;
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.corrupted_delivered, 0u);
  EXPECT_GT(r.deadlocks_confirmed + r.fallback_recoveries, 0u);
}

}  // namespace
}  // namespace ftnoc
