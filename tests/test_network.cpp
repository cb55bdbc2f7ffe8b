// Unit-ish tests for Network wiring, the processing elements and the E2E
// edge machinery.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

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
        inject = sim.network().packets().find(tail.packet_id)->inject;
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
  // inject_packet opens the record, holds a copy and queues the packet.
  const PacketId pid = sim.network().inject_packet(0, 3, 4);
  ASSERT_EQ(pe.pending_packets(), 1u);
  pe.e2e_nack(pid);
  ASSERT_EQ(pe.pending_packets(), 2u);
  // The requeued id's flits are built clean from the packet table's
  // record when they are sent. (Verified end-to-end by
  // FaultIntegrationE2e.RetransmitsUntilClean.)
}

TEST(NetworkE2e, PeDigestCachesMatchAFirstDigest) {
  // ProcessingElement::state_digest reads running folds of the queued and
  // held packet ids, and the packet table keeps a running sum from its
  // first digest on, instead of rehashing every queued packet and record.
  // A network digested every cycle must agree with a twin digested only at
  // the end, whose first call hashes the table from scratch. Saturated
  // E2E traffic over corrupting links grows the source queues, requeues
  // NACKed packets at the front and stamps records on injection.
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

// --- Packet table ------------------------------------------------------------

// The lowest-id live record, or null.
PacketTable::Record* first_record(Network& net) {
  for (PacketId pid = 1; pid < 100'000; ++pid) {
    if (PacketTable::Record* r = net.packets().find(pid)) return r;
  }
  return nullptr;
}

TEST(NetworkDigest, PacketRecordFieldsReachStateDigest) {
  // Birth, injection cycle and payloads left the flit for the network's
  // packet table, and the PEs build flits from the record's destination;
  // the state digest must still see every one of them, both on the first
  // digest and through the running sum update() keeps.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.4;
  using Bump = std::function<void(PacketTable&, PacketTable::Record&)>;
  const std::vector<std::pair<std::string, Bump>> bumps = {
      {"birth", [](PacketTable&, PacketTable::Record& r) { ++r.birth; }},
      {"inject", [](PacketTable&, PacketTable::Record& r) { ++r.inject; }},
      {"payload",
       [](PacketTable& t, PacketTable::Record& r) { t.payload(r, 1) ^= 1; }},
      {"dest", [](PacketTable&, PacketTable::Record& r) { r.dest ^= 1; }},
  };
  for (const auto& [name, bump] : bumps) {
    for (const bool digest_first : {false, true}) {
      Network a(cfg);
      Network b(cfg);
      for (int c = 0; c < 100; ++c) {
        a.step();
        b.step();
      }
      const std::uint64_t before = a.state_digest();
      if (digest_first) {
        ASSERT_EQ(b.state_digest(), before);
      }
      PacketTable::Record* rec = first_record(b);
      ASSERT_NE(rec, nullptr);
      b.packets().update(*rec, [&](PacketTable::Record& r) {
        bump(b.packets(), r);
      });
      EXPECT_NE(b.state_digest(), before)
          << name << " (digest_first=" << digest_first << ")";
    }
  }
}

TEST(PacketTable, RecordsSurviveGrowthAndBackwardShiftErase) {
  // Identity-hashed ids collide once live ids span more than the
  // capacity; erasing from the middle of a probe run must keep every
  // other record reachable with its own payloads.
  PacketTable t;
  auto open = [&t](PacketId pid) {
    t.open(pid, static_cast<NodeId>(pid % 7),
           1 + static_cast<std::uint32_t>(pid % 5), pid * 10,
           [pid](std::uint32_t k) { return (pid << 8) | k; });
  };
  std::vector<PacketId> live;
  for (PacketId pid = 1; pid <= 40; ++pid) {
    open(pid);
    live.push_back(pid);
  }
  // Keep a few old ids while newer ones wrap onto their home slots.
  for (PacketId pid = 41; pid <= 400; ++pid) {
    open(pid);
    live.push_back(pid);
    const PacketId victim = live[live.size() / 2];
    if (victim % 7 != 0) {
      t.erase(victim);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(live.size() / 2));
    }
  }
  ASSERT_EQ(t.size(), live.size());
  for (const PacketId pid : live) {
    const PacketTable::Record* r = t.find(pid);
    ASSERT_NE(r, nullptr) << pid;
    EXPECT_EQ(r->birth, pid * 10);
    EXPECT_EQ(r->dest, pid % 7);
    ASSERT_EQ(r->length, 1 + pid % 5);
    for (std::uint8_t k = 0; k < r->length; ++k) {
      EXPECT_EQ(t.payload(*r, k), (pid << 8) | k) << pid;
    }
  }
  for (const PacketId pid : live) t.erase(pid);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(live.front()), nullptr);
}

struct DrainCase {
  std::string name;
  std::function<void(SimConfig&)> tweak;
};

TEST(PacketTable, DrainedRunsEndWithAnEmptyTable) {
  // Every record closes when its packet is delivered: a workload replayed
  // to drain (run_to_drain) must leave nothing behind, across the link
  // protection schemes, E2E NACK-and-retransmit and a fault storm. The
  // invariant monitor checks that every ejected flit finds its record.
  const std::vector<DrainCase> cases = {
      {"workload", [](SimConfig&) {}},
      {"hbh", [](SimConfig& c) {
         c.protection = LinkProtection::kHbh;
         c.faults.link_error_rate = 1e-2;
         c.faults.multi_bit_fraction = 0.5;
       }},
      {"e2e_nack", [](SimConfig& c) {
         c.protection = LinkProtection::kE2e;
         c.faults.link_error_rate = 1e-1;
       }},
      {"fec", [](SimConfig& c) {
         c.protection = LinkProtection::kFec;
         c.faults.link_error_rate = 1e-2;
         c.faults.multi_bit_fraction = 0.5;
       }},
      {"storm", [](SimConfig& c) {
         c.routing = RoutingAlgorithm::kMinimalAdaptive;
         c.adaptive_faults = true;
         c.deadlock.enable_recovery = true;
         c.storm_kills.push_back({40, 5, Direction::kEast});
         c.storm_kills.push_back({80, 9, Direction::kNorth});
         c.storm_kills.push_back({120, 6, Direction::kSouth});
       }},
  };
  for (const DrainCase& dc : cases) {
    for (const bool reference : {false, true}) {
      SimConfig cfg;
      cfg.mesh_width = 4;
      cfg.mesh_height = 4;
      cfg.injection_rate = 0.0;
      cfg.warmup_messages = 0;
      cfg.total_messages = 1;  // Ignored: run_to_drain ends the run.
      cfg.max_cycles = 200'000;
      cfg.run_to_drain = true;
      cfg.check_invariants = true;
      cfg.use_reference_router = reference;
      cfg.workload_text =
          "packet_flits 4\n"
          "all_to_all mix start=0 flits=8 stagger=6\n"
          "many_to_one sink start=20 dest=5 flits=6 stagger=2\n";
      dc.tweak(cfg);
      Simulator sim(cfg);
      const SimResults r = sim.run();
      ASSERT_TRUE(r.completed) << dc.name;
      EXPECT_GT(sim.network().stats().packets_created(), 400u) << dc.name;
      EXPECT_EQ(sim.network().packets().size(), 0u)
          << dc.name << " (reference=" << reference << ")";
      if (dc.name == "e2e_nack") {
        EXPECT_GT(r.e2e_retransmits, 0u);
      }
      if (dc.name == "storm") {
        EXPECT_GT(r.links_storm_killed, 0u);
      }
    }
  }
}

TEST(Network, RejectsInvalidConfig) {
  SimConfig cfg = tiny();
  cfg.num_vcs = 0;
  EXPECT_DEATH({ Network net(cfg); }, "invalid SimConfig");
}

}  // namespace
}  // namespace ftnoc
