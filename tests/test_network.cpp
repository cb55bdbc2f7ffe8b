// Unit-ish tests for Network wiring, the processing elements and the E2E
// edge machinery.

#include <gtest/gtest.h>

#include "noc/simulator.hpp"

namespace ftnoc {
namespace {

SimConfig tiny() {
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 1;
  cfg.max_cycles = 5'000;
  return cfg;
}

TEST(Network, SingleHopDelivery) {
  SimConfig cfg = tiny();
  Simulator sim(cfg);
  NodeId got_dest = kInvalidNode;
  Flit got_tail;
  sim.network().set_delivery_listener(
      [&](NodeId d, const Flit& tail, Cycle) {
        got_dest = d;
        got_tail = tail;
      });
  const PacketId pid = sim.network().inject_packet(0, 1, 4);
  const SimResults r = sim.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(got_dest, 1);
  EXPECT_EQ(got_tail.packet_id, pid);
  EXPECT_EQ(got_tail.src, 0);
  EXPECT_EQ(got_tail.hops, 1);
}

TEST(Network, HopCountMatchesManhattanDistance) {
  SimConfig cfg = tiny();
  cfg.mesh_width = 5;
  cfg.mesh_height = 5;
  Simulator sim(cfg);
  std::uint8_t hops = 0;
  sim.network().set_delivery_listener(
      [&](NodeId, const Flit& tail, Cycle) { hops = tail.hops; });
  sim.network().inject_packet(0, 24, 4);  // (0,0) -> (4,4).
  ASSERT_TRUE(sim.run().completed);
  EXPECT_EQ(hops, 8);
}

TEST(Network, InjectionStampSetOnDeliveredTail) {
  Simulator sim(tiny());
  Cycle inject = 0;
  Cycle eject = 0;
  sim.network().set_delivery_listener(
      [&](NodeId, const Flit& tail, Cycle now) {
        inject = tail.inject_cycle;
        eject = now;
      });
  sim.network().inject_packet(0, 3, 4);
  ASSERT_TRUE(sim.run().completed);
  EXPECT_GT(inject, 0u);
  EXPECT_GT(eject, inject);
}

TEST(Network, BufferFractionsStartAtZero) {
  Network net(tiny());
  EXPECT_DOUBLE_EQ(net.tx_buffer_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(net.rtx_buffer_fraction(), 0.0);
}

TEST(Network, PacketIdsAreUniqueAcrossSources) {
  Simulator sim(tiny());
  const PacketId a = sim.network().inject_packet(0, 1, 4);
  const PacketId b = sim.network().inject_packet(1, 2, 4);
  const PacketId c = sim.network().inject_packet(2, 3, 4);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

TEST(Network, PeQueuesPacketsBeyondLaneCapacity) {
  // More packets than local VCs: the source queue holds them and drains.
  SimConfig cfg = tiny();
  cfg.total_messages = 12;
  Simulator sim(cfg);
  for (int i = 0; i < 12; ++i) sim.network().inject_packet(0, 3, 4);
  EXPECT_GE(sim.network().pe(0).pending_packets(), 9u);  // 3 lanes busy.
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
}

TEST(NetworkE2e, SourceBufferHeldUntilAck) {
  SimConfig cfg = tiny();
  cfg.protection = LinkProtection::kE2e;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  Simulator sim(cfg);
  sim.network().inject_packet(0, 15, 4);
  EXPECT_EQ(sim.network().pe(0).e2e_buffer_occupancy(), 1u);
  const SimResults r = sim.run();
  ASSERT_TRUE(r.completed);
  // The ACK (hop-delayed) must eventually clear the copy.
  for (int i = 0; i < 50; ++i) sim.network().step();
  EXPECT_EQ(sim.network().pe(0).e2e_buffer_occupancy(), 0u);
}

TEST(NetworkE2e, StaleNackIsIgnored) {
  // Defensive path: a NACK for an already-acknowledged packet is a no-op.
  SimConfig cfg = tiny();
  cfg.protection = LinkProtection::kE2e;
  Simulator sim(cfg);
  auto& pe = sim.network().pe(0);
  pe.e2e_nack(12345);  // Never held.
  EXPECT_EQ(pe.pending_packets(), 0u);
}

TEST(NetworkE2e, NackRequeuesCleanCopyAtFront) {
  SimConfig cfg = tiny();
  cfg.protection = LinkProtection::kE2e;
  Simulator sim(cfg);
  auto& pe = sim.network().pe(0);
  auto flits = TrafficSource::build_packet(77, 0, 3, 4, 5, nullptr);
  // Simulate a held copy whose wire version got corrupted.
  for (auto& f : flits) f.codeword.flip(3);
  pe.hold_for_e2e(flits);
  pe.e2e_nack(77);
  ASSERT_EQ(pe.pending_packets(), 1u);
  // The requeued copy is re-encoded clean from the payload oracle.
  // (Verified end-to-end by FaultIntegrationE2e.RetransmitsUntilClean.)
}

TEST(NetworkE2e, PeDigestCachesMatchAFirstDigest) {
  // From its first call on, ProcessingElement::state_digest keeps cached
  // per-packet hashes current instead of rehashing every queued flit. A
  // network digested every cycle must agree with a twin digested only at
  // the end, whose first call hashes every queue from scratch. Saturated
  // E2E traffic over corrupting links grows the source queues, requeues
  // NACKed packets at the front and stamps held copies on injection.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.protection = LinkProtection::kE2e;
  cfg.injection_rate = 0.6;
  cfg.faults.link_error_rate = 0.02;
  Network every(cfg);
  Network once(cfg);
  every.stats().begin_measurement(0);  // Counts the E2E retransmissions.
  for (int c = 0; c < 600; ++c) {
    every.step();
    once.step();
    (void)every.state_digest();
  }
  std::size_t pending = 0;
  std::size_t held = 0;
  for (NodeId n = 0; n < 16; ++n) {
    pending += every.pe(n).pending_packets();
    held += every.pe(n).e2e_buffer_occupancy();
  }
  EXPECT_GT(pending, 16u);
  EXPECT_GT(held, 16u);
  EXPECT_GT(every.stats().e2e_retransmits(), 0u);
  EXPECT_EQ(every.state_digest(), once.state_digest());
}

TEST(Network, RejectsInvalidConfig) {
  SimConfig cfg = tiny();
  cfg.num_vcs = 0;
  EXPECT_DEATH({ Network net(cfg); }, "invalid SimConfig");
}

}  // namespace
}  // namespace ftnoc
