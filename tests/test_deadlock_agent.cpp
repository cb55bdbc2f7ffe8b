// Unit tests for the probing deadlock-detection protocol (rules 1-4 of
// §3.2.2) and the Eq. (1) buffer lower bound.

#include "core/deadlock.hpp"

#include "common/config.hpp"

#include <gtest/gtest.h>

namespace ftnoc {
namespace {

TEST(DeadlockAgent, Rule1ProbeOnlyAfterThreshold) {
  DeadlockAgent a(/*self=*/5, /*threshold=*/10, /*backoff=*/4);
  EXPECT_FALSE(a.should_probe(9, 100));
  EXPECT_FALSE(a.should_probe(10, 100));
  EXPECT_TRUE(a.should_probe(11, 100));
}

TEST(DeadlockAgent, OnlyOneOutstandingProbe) {
  DeadlockAgent a(5, 10, 4);
  ASSERT_TRUE(a.should_probe(20, 100));
  a.make_probe(0, 0, 100);
  EXPECT_TRUE(a.waiting_for_probe());
  EXPECT_FALSE(a.should_probe(20, 101));
}

TEST(DeadlockAgent, BackoffBetweenProbes) {
  DeadlockAgent a(5, 10, 8);
  const ProbeSignal p = a.make_probe(0, 0, 100);
  ASSERT_TRUE(a.on_probe_returned(p));  // Probe resolved (confirmed).
  a.exit_recovery();                    // Reset episode state.
  EXPECT_FALSE(a.should_probe(20, 104));  // Inside the backoff window.
  EXPECT_TRUE(a.should_probe(20, 108));
}

TEST(DeadlockAgent, ProbeIdsAreUnique) {
  DeadlockAgent a(5, 1, 0);
  const ProbeSignal p1 = a.make_probe(0, 0, 10);
  a.on_probe_returned(p1);
  a.exit_recovery();
  const ProbeSignal p2 = a.make_probe(1, 1, 20);
  EXPECT_NE(p1.probe_id, p2.probe_id);
}

TEST(DeadlockAgent, Rule2ForwardWhenBlocked) {
  DeadlockAgent a(5, 10, 4);
  ProbeSignal p{/*origin=*/2, /*probe_id=*/7, /*in_port=*/1, /*in_vc=*/0};
  EXPECT_EQ(a.on_probe(p, /*target_blocked=*/true), ProbeAction::kForward);
}

TEST(DeadlockAgent, Rule2DiscardWhenNotBlocked) {
  DeadlockAgent a(5, 10, 4);
  ProbeSignal p{2, 7, 1, 0};
  EXPECT_EQ(a.on_probe(p, false), ProbeAction::kDiscard);
  EXPECT_EQ(a.probes_discarded(), 1u);
}

TEST(DeadlockAgent, Rule2RecoveryModeCountsAsBlocked) {
  DeadlockAgent a(5, 10, 4);
  a.enter_recovery();
  ProbeSignal p{2, 7, 1, 0};
  EXPECT_EQ(a.on_probe(p, false), ProbeAction::kForward);
}

TEST(DeadlockAgent, OwnProbeReturnConfirmsDeadlock) {
  DeadlockAgent a(5, 10, 4);
  const ProbeSignal p = a.make_probe(0, 0, 100);
  ProbeSignal back = p;  // Came all the way around.
  EXPECT_EQ(a.on_probe(back, true), ProbeAction::kReturnToOrigin);
  EXPECT_TRUE(a.on_probe_returned(back));
  EXPECT_EQ(a.deadlocks_confirmed(), 1u);
  EXPECT_FALSE(a.waiting_for_probe());
}

TEST(DeadlockAgent, ProbePortLivesAsLongAsTheOutstandingProbe) {
  // The origin's only record of its probe's route is the agent's: the
  // port comes back on a confirmed return and is gone wherever the
  // outstanding id goes.
  DeadlockAgent a(5, 10, 4);
  EXPECT_EQ(a.probe_port(), kInvalidPort);
  const ProbeSignal p = a.make_probe(/*via=*/1, /*target_vc=*/0, 100);
  EXPECT_EQ(p.in_port, 3);  // East out of here is West in at the neighbour.
  EXPECT_EQ(a.probe_port(), 1);
  EXPECT_EQ(a.on_probe_returned(p), std::optional<PortId>(1));
  EXPECT_EQ(a.probe_port(), kInvalidPort);

  // exit_recovery() orphans a probe still in flight.
  a.exit_recovery();
  const ProbeSignal orphan = a.make_probe(2, 0, 200);
  EXPECT_EQ(a.probe_port(), 2);
  a.enter_recovery();
  a.exit_recovery();
  EXPECT_EQ(a.probe_port(), kInvalidPort);
  EXPECT_EQ(a.on_probe_returned(orphan), std::nullopt);

  // Rule 4: a return after a peer's activation hands back no port.
  const ProbeSignal own = a.make_probe(0, 0, 300);
  EXPECT_EQ(a.probe_port(), 0);
  a.enter_recovery();
  EXPECT_EQ(a.on_probe_returned(own), std::nullopt);
  EXPECT_EQ(a.probe_port(), kInvalidPort);
}

TEST(DeadlockAgent, StaleProbeReturnIsIgnored) {
  DeadlockAgent a(5, 10, 4);
  ProbeSignal stale;
  stale.origin = 5;
  stale.probe_id = 999;
  EXPECT_FALSE(a.on_probe_returned(stale));
}

TEST(DeadlockAgent, Rule3ActivationWithoutPriorProbeDiscarded) {
  DeadlockAgent a(5, 10, 4);
  EXPECT_EQ(a.on_activation({/*origin=*/2, /*probe_id=*/7}), std::nullopt);
  EXPECT_FALSE(a.in_recovery());
}

TEST(DeadlockAgent, Rule3ActivationAfterProbeEntersRecoveryAndForwards) {
  DeadlockAgent a(5, 10, 4);
  ProbeSignal p{2, 7, 1, 0};
  a.remember_forwarded_probe(p, /*forwarded_to=*/3, /*next_in_port=*/1,
                             /*next_in_vc=*/0);
  const auto fwd = a.on_activation({2, 7});
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(*fwd, 3);
  EXPECT_TRUE(a.in_recovery());
  EXPECT_EQ(a.recoveries_entered(), 1u);
}

TEST(DeadlockAgent, Rule4PeerActivationDiscardsOwnReturningProbe) {
  DeadlockAgent a(5, 10, 4);
  const ProbeSignal own = a.make_probe(0, 0, 100);
  // A peer's probe passed through us earlier...
  ProbeSignal peer{2, 7, 1, 0};
  a.remember_forwarded_probe(peer, 3, 1, 0);
  // ...and its activation arrives while we wait for our own probe.
  ASSERT_TRUE(a.on_activation({2, 7}).has_value());
  EXPECT_TRUE(a.in_recovery());
  // Rule 4: our own probe, when it finally returns, is discarded.
  EXPECT_FALSE(a.on_probe_returned(own));
  EXPECT_EQ(a.deadlocks_confirmed(), 0u);
}

TEST(DeadlockAgent, ActivationReturnedActivatesOrigin) {
  DeadlockAgent a(5, 10, 4);
  a.make_probe(0, 0, 100);
  a.on_activation_returned({5, 1});
  EXPECT_TRUE(a.in_recovery());
}

TEST(DeadlockAgent, ExitRecoveryClearsEpisodeState) {
  DeadlockAgent a(5, 10, 4);
  ProbeSignal peer{2, 7, 1, 0};
  a.remember_forwarded_probe(peer, 3, 1, 0);
  a.enter_recovery();
  a.exit_recovery();
  EXPECT_FALSE(a.in_recovery());
  // Stale activation after the episode finds no remembered probe (Rule 3).
  EXPECT_EQ(a.on_activation({2, 7}), std::nullopt);
}

TEST(DeadlockAgent, DuplicateEnterRecoveryCountsOnce) {
  DeadlockAgent a(5, 10, 4);
  a.enter_recovery();
  a.enter_recovery();
  EXPECT_EQ(a.recoveries_entered(), 1u);
}

// --- Eq. (1) lower bound ---------------------------------------------------

TEST(RecoveryBufferBound, Figure10Example) {
  // T=4, R=3, M=4, n=3: B2 = 21 > 4 * 3 = 12.
  EXPECT_TRUE(recovery_buffer_bound_ok({4, 4, 4}, {3, 3, 3}, 4));
}

TEST(RecoveryBufferBound, Figure11WorstCase) {
  // T=6, R=3, M=4, N=2, n=4: B2 = 36 > 4 * 8 = 32.
  EXPECT_TRUE(recovery_buffer_bound_ok({6, 6, 6, 6}, {3, 3, 3, 3}, 4));
}

TEST(RecoveryBufferBound, FailsWithoutRetransmissionBuffers) {
  // Without the R_i term the bound cannot hold: B2 = sum T_i = M * sum N_i
  // exactly when T_i is a multiple of M.
  EXPECT_FALSE(recovery_buffer_bound_ok({4, 4, 4}, {0, 0, 0}, 4));
}

TEST(RecoveryBufferBound, TightBoundary) {
  // B2 must be strictly greater than M*N: equality is not enough.
  // T=5, R=3, M=4 -> N_i = 2, per-node rhs = 8, per-node lhs = 8.
  EXPECT_FALSE(recovery_buffer_bound_ok({5, 5}, {3, 3}, 4));
  // One extra retransmission slot tips it.
  EXPECT_TRUE(recovery_buffer_bound_ok({5, 5}, {4, 3}, 4));
}

TEST(RecoveryBufferBound, SingleFlitPackets) {
  // M=1: N_i = T_i, rhs = sum T_i; any R_i > 0 satisfies the bound.
  EXPECT_TRUE(recovery_buffer_bound_ok({4}, {1}, 1));
  EXPECT_FALSE(recovery_buffer_bound_ok({4}, {0}, 1));
}

}  // namespace
}  // namespace ftnoc
