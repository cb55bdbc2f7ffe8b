// Router-level unit tests: a single router driven through hand-held wires,
// reproducing the paper's Figure 4 HBH flit flow cycle by cycle.

#include <gtest/gtest.h>

#include <vector>

#include "noc/router.hpp"

namespace ftnoc {
namespace {

constexpr PortId kE = static_cast<PortId>(Direction::kEast);
constexpr PortId kL = static_cast<PortId>(Direction::kLocal);

// Harness: router 0 of a 2x1 mesh (only an East neighbour exists). The
// test acts as both the PE (via the local wire) and the downstream
// router (via the East wire pair).
class RouterHarness : public ::testing::Test {
 protected:
  RouterHarness() : topo_(2, 1, false) {
    cfg_.mesh_width = 2;
    cfg_.mesh_height = 1;
    cfg_.num_vcs = 2;
    cfg_.vc_buffer_depth = 4;
    cfg_.protection = LinkProtection::kHbh;
  }

  void build() {
    router_ = std::make_unique<Router>(0, cfg_, topo_, nullptr, nullptr,
                                       &stats_);
    router_->connect(kE, &east_in_, &east_out_);
    router_->connect(kL, &local_in_, nullptr);
    router_->set_eject_fn([this](const Flit& f, Cycle now) {
      ejected_.push_back({f, now});
    });
  }

  // One network cycle: step the router, then advance all wires.
  void tick() {
    router_->step(now_);
    east_in_.tick();
    east_out_.tick();
    local_in_.tick();
    ++now_;
  }

  // PE-side injection of one flit (assumes local credit available).
  void inject(const Flit& f) { local_in_.write(f); }

  std::vector<Flit> make_packet(PacketId pid, NodeId dest, int len) {
    return TrafficSourcePacket(pid, dest, len);
  }

  static std::vector<Flit> TrafficSourcePacket(PacketId pid, NodeId dest,
                                               int len) {
    std::vector<Flit> flits;
    for (int i = 0; i < len; ++i) {
      FlitType t = len == 1               ? FlitType::kHeadTail
                   : i == 0               ? FlitType::kHead
                   : i == len - 1         ? FlitType::kTail
                                          : FlitType::kBody;
      Flit f = make_flit(t, pid, 0, dest, static_cast<std::uint8_t>(i),
                         0xAB00 + static_cast<std::uint64_t>(i));
      f.vc = 0;  // Local lane 0.
      flits.push_back(f);
    }
    return flits;
  }

  // Step at which a fresh router sends east the tail of a two-flit packet
  // whose tail reaches its input buffer at cycle `tail_at` (the head went
  // ahead, so the wormhole is open and the tail waits only for SA), or 0.
  Cycle tail_send_step(Cycle tail_at) {
    now_ = tail_at - 10;
    build();
    const auto pkt = make_packet(1, /*dest=*/1, 2);
    inject(pkt[0]);
    while (now_ + 1 < tail_at) tick();
    inject(pkt[1]);  // Readable, and buffered, at tail_at.
    for (int k = 0; k < 5; ++k) {
      const Cycle step = now_;
      tick();
      const Flit* out = east_out_.flit.peek();
      if (out != nullptr && is_tail(out->type)) return step;
    }
    return 0;
  }

  SimConfig cfg_;
  Topology topo_;
  StatsCollector stats_;
  std::unique_ptr<Router> router_;
  Wire east_in_;   // Neighbour -> router (we write flits, read credit/NACK).
  Wire east_out_;  // Router -> neighbour (we read flits, write credit/NACK).
  Wire local_in_;  // PE -> router.
  std::vector<std::pair<Flit, Cycle>> ejected_;
  Cycle now_ = 0;
};

TEST_F(RouterHarness, ForwardsPacketEastInOrder) {
  build();
  stats_.begin_measurement(0);
  auto pkt = make_packet(1, /*dest=*/1, 4);
  std::size_t next = 0;
  std::vector<Flit> seen;
  for (int c = 0; c < 30; ++c) {
    if (next < pkt.size() && local_in_.flit.can_write()) {
      inject(pkt[next++]);
    }
    if (auto f = east_out_.flit.read()) seen.push_back(*f);
    tick();
  }
  ASSERT_EQ(seen.size(), 4u);
  for (std::uint8_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i].seq, i);
    EXPECT_EQ(seen[i].packet_id, 1u);
    EXPECT_EQ(ecc::decode(seen[i].codeword()).status, ecc::DecodeStatus::kClean);
  }
}

TEST_F(RouterHarness, HeaderLatencyIsThreePipeStages) {
  build();
  auto pkt = make_packet(1, 1, 1);
  inject(pkt[0]);  // Visible to the router at cycle 1.
  Cycle out_cycle = 0;
  for (int c = 0; c < 20 && out_cycle == 0; ++c) {
    if (east_out_.flit.peek() != nullptr) out_cycle = now_;
    tick();
  }
  // Arrives cycle 1 (buffer write), RT 2, VA 3, SA+ST 4 -> on the wire,
  // readable by the neighbour at cycle 5.
  EXPECT_EQ(out_cycle, 5u);
}

TEST_F(RouterHarness, ArrivalStampHoldsAcrossCycleTwoToThe32) {
  // A flit keeps only the low 32 bits of its arrival cycle. It must still
  // wait out exactly its arrival cycle where those bits wrap: arriving at
  // 2^32 (stamp 0) it is not eligible for SA that cycle and leaves the
  // next; arriving at 2^32 - 1 (stamp 0xFFFFFFFF) it leaves at 2^32.
  constexpr Cycle kWrap = Cycle{1} << 32;
  EXPECT_EQ(tail_send_step(1'000), 1'001u);
  EXPECT_EQ(tail_send_step(kWrap - 1), kWrap);
  EXPECT_EQ(tail_send_step(kWrap), kWrap + 1);
  EXPECT_EQ(tail_send_step(kWrap + 1), kWrap + 2);
}

TEST_F(RouterHarness, EjectsPacketDestinedHere) {
  build();
  auto pkt = make_packet(9, /*dest=*/0, 4);
  std::size_t next = 0;
  for (int c = 0; c < 30; ++c) {
    if (next < pkt.size() && local_in_.flit.can_write()) {
      inject(pkt[next++]);
    }
    tick();
  }
  ASSERT_EQ(ejected_.size(), 4u);
  EXPECT_EQ(ejected_.back().first.type, FlitType::kTail);
}

TEST_F(RouterHarness, Figure4NackReplaysDroppedFlits) {
  // The paper's Figure 4 from the *transmitting* router's perspective:
  // H1 D2 D3 T4 stream out; the neighbour NACKs H1; the router must
  // replay H1 D2 D3 (the two in-flight flits were dropped downstream)
  // and then T4 — all in order, without consuming fresh credits for the
  // replays.
  build();
  auto pkt = make_packet(1, 1, 4);
  std::size_t next = 0;
  std::vector<std::pair<Flit, Cycle>> seen;
  bool nack_pending = false;
  bool nacked = false;
  for (int c = 0; c < 40; ++c) {
    if (next < pkt.size() && local_in_.flit.can_write()) {
      inject(pkt[next++]);
    }
    if (nack_pending) {
      // Our (downstream) error-check stage took one cycle; the NACK goes
      // out now — the full 3-cycle loop of Figure 4.
      east_out_.write(NackMsg{0});
      nack_pending = false;
    }
    if (auto f = east_out_.flit.read()) {
      seen.push_back({*f, now_});
      if (!nacked && f->seq == 0) {
        nack_pending = true;  // "Error detected, not corrected" on H1.
        nacked = true;
      }
    }
    tick();
  }
  // Observed stream: H1 D2 D3 (originals), then H1 D2 D3 T4 (replays + tail).
  ASSERT_GE(seen.size(), 7u);
  std::vector<int> seqs;
  for (const auto& [f, cyc] : seen) seqs.push_back(f.seq);
  EXPECT_EQ(seqs, (std::vector<int>{0, 1, 2, 0, 1, 2, 3}));
  // The replayed H1 reaches the neighbour 3 cycles after the NACK loop:
  // original H1 read at cycle t, NACK written t, processed t+1, replayed
  // t+1, readable t+2... verify the replay gap is small and bounded.
  EXPECT_LE(seen[3].second - seen[0].second, 4u);
}

TEST_F(RouterHarness, ReceiverDropsWindowAndNacksUpstream) {
  // Receiver role: a multi-bit-corrupt flit arrives from the East
  // neighbour; the router must (a) not buffer it, (b) send a NACK one
  // cycle later, (c) drop the two follow-up flits, (d) accept the
  // retransmission.
  build();
  stats_.begin_measurement(0);
  auto pkt = make_packet(7, /*dest=*/0, 4);  // Will eject here.
  for (auto& f : pkt) f.vc = 1;              // Arbitrary input VC.

  // Cycle 0: corrupted header arrives.
  Flit bad = pkt[0];
  bad.flip_code_bit(3);
  bad.flip_code_bit(40);
  east_in_.write(bad);
  tick();  // Router sees it at cycle 1.

  // Cycles 1-2: the two in-flight followers arrive and must be dropped.
  east_in_.write(pkt[1]);
  tick();
  Cycle nack_seen = 0;
  if (east_in_.nack.peek() != nullptr) nack_seen = now_;
  east_in_.write(pkt[2]);
  tick();
  if (!nack_seen && east_in_.nack.peek() != nullptr) nack_seen = now_;
  // NACK written during cycle 2 (detection at 1 + one check cycle),
  // readable on the wire at cycle 3.
  east_in_.nack.read();
  EXPECT_EQ(nack_seen, 3u);

  // Retransmission: clean H1 D2 D3 T4.
  for (const auto& f : pkt) {
    east_in_.write(f);
    tick();
  }
  for (int c = 0; c < 10; ++c) tick();
  ASSERT_EQ(ejected_.size(), 4u);
  EXPECT_EQ(ejected_.back().first.type, FlitType::kTail);
  EXPECT_EQ(stats_.flits_dropped(), 2u);
  EXPECT_EQ(stats_.nacks_sent(), 1u);
}

TEST_F(RouterHarness, CreditsConsumedAndRestored) {
  // Single VC so both packets share one credit pool of depth 4: with a
  // silent receiver exactly 4 flits may fly, then the link stalls until
  // credits come back.
  cfg_.num_vcs = 1;
  build();
  auto pkt1 = make_packet(1, 1, 4);
  auto pkt2 = make_packet(2, 1, 4);
  std::size_t n1 = 0, n2 = 0;
  int sent = 0;
  for (int c = 0; c < 40; ++c) {
    if (n1 < pkt1.size() && local_in_.flit.can_write()) {
      inject(pkt1[n1++]);
    } else if (n1 == pkt1.size() && n2 < pkt2.size() &&
               local_in_.flit.can_write()) {
      inject(pkt2[n2++]);
    }
    if (east_out_.flit.read()) ++sent;
    tick();
  }
  EXPECT_EQ(sent, 4);  // Downstream buffer full; nothing more may fly.

  // Act as a draining receiver: return one credit per flit received.
  int credits_owed = sent;
  for (int c = 0; c < 60; ++c) {
    if (credits_owed > 0) {
      east_out_.write(Credit{0});
      --credits_owed;
    }
    if (east_out_.flit.read()) {
      ++sent;
      ++credits_owed;
    }
    tick();
  }
  EXPECT_EQ(sent, 8);
}

TEST_F(RouterHarness, FourStageStagedFlitSquashedOnNack) {
  // 4-stage pipeline: when a NACK arrives while a flit of the same VC sits
  // in the ST register, the register is squashed and the flit replays
  // after the rolled-back ones — no stale transmission, no duplicates.
  cfg_.pipeline_stages = 4;
  cfg_.retransmission_depth = 4;
  build();
  auto pkt = make_packet(1, 1, 4);
  std::size_t next = 0;
  std::vector<int> seqs;
  bool nacked = false;
  for (int c = 0; c < 50; ++c) {
    if (next < pkt.size() && local_in_.flit.can_write()) {
      inject(pkt[next++]);
    }
    if (auto f = east_out_.flit.read()) {
      seqs.push_back(f->seq);
      if (!nacked && f->seq == 0) {
        east_out_.write(NackMsg{f->vc});
        nacked = true;
      }
    }
    tick();
  }
  // No flit may appear twice without an intervening NACK-replay of its
  // predecessors, and the final stream must deliver 0,1,2,3 in order.
  ASSERT_GE(seqs.size(), 4u);
  std::vector<int> tail(seqs.end() - 4, seqs.end());
  EXPECT_EQ(tail, (std::vector<int>{0, 1, 2, 3}));
  // Count each seq's occurrences: the replayed prefix appears at most
  // twice, and T4 exactly once.
  EXPECT_EQ(std::count(seqs.begin(), seqs.end(), 3), 1);
}

TEST_F(RouterHarness, FourStageHbhDropWindowCoversThirdFollower) {
  // Regression (§3.1, Figure 4): a sender with a dedicated ST stage has
  // THREE flits in flight behind an errored one (link + check + the extra
  // pipe stage), so the receiver's drop window must span three cycles.
  // With the old two-cycle window the third follower was accepted stale
  // into the open wormhole ahead of its own replay, wrecking flit order.
  cfg_.pipeline_stages = 4;
  cfg_.retransmission_depth = 4;
  cfg_.vc_buffer_depth = 6;
  build();
  auto pkt = make_packet(7, /*dest=*/0, 6);  // Ejects locally at router 0.
  Flit corrupt = pkt[2];
  corrupt.flip_code_bit(3);
  corrupt.flip_code_bit(7);  // Two flips: uncorrectable, forces a NACK.
  // Wall-clock script of the fake East neighbour: the wormhole opens
  // cleanly (seq 0-1), seq 2 arrives wrecked, seq 3-5 are already in
  // flight behind it and arrive back-to-back, and after seeing the NACK
  // the neighbour replays seq 2-5.
  int nacks_seen = 0;
  for (int c = 0; c < 40; ++c) {
    switch (c) {
      case 0: east_in_.write(pkt[0]); break;
      case 1: east_in_.write(pkt[1]); break;
      case 2: east_in_.write(corrupt); break;
      case 3: east_in_.write(pkt[3]); break;   // In flight: must drop.
      case 4: east_in_.write(pkt[4]); break;   // In flight: must drop.
      case 5: east_in_.write(pkt[5]); break;   // In flight: must drop.
      case 10: east_in_.write(pkt[2]); break;  // Replay, clean.
      case 11: east_in_.write(pkt[3]); break;
      case 12: east_in_.write(pkt[4]); break;
      case 13: east_in_.write(pkt[5]); break;
      default: break;
    }
    if (east_in_.nack.read()) ++nacks_seen;
    tick();
  }
  EXPECT_EQ(nacks_seen, 1);
  // Exactly one clean copy of every flit, in order — no stale follower
  // delivered ahead of its replay, no duplicates.
  ASSERT_EQ(ejected_.size(), 6u);
  for (std::uint8_t i = 0; i < 6; ++i) {
    EXPECT_EQ(ejected_[i].first.seq, i) << "position " << int(i);
  }
}

TEST(RouterIdle, QuiescentCycleChangesNothingAndChargesNothing) {
  // take_wake_info() is the one definition of "has internal work": a
  // router without it and without wire input reports no retick, no timer
  // and no writes, so the event kernel never steps it. The steps it may
  // still get (cycle 0, a stale own-probe GC timer) must be provable
  // no-ops — no energy charges, no arbiter movement, no state change —
  // or the event kernel would diverge from the reference scan.
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  cfg.num_vcs = 2;
  cfg.protection = LinkProtection::kHbh;
  Topology topo(2, 1, false);
  power::EnergyMeter meter;
  StatsCollector stats;
  Router r(0, cfg, topo, nullptr, &meter, &stats);
  Wire east_in, east_out, local_in;
  r.connect(kE, &east_in, &east_out);
  r.connect(kL, &local_in, nullptr);
  std::vector<std::pair<Flit, Cycle>> ejected;
  r.set_eject_fn([&](const Flit& f, Cycle now) { ejected.push_back({f, now}); });
  const auto cycle = [&](Cycle c) {
    r.step(c);
    east_in.tick();
    east_out.tick();
    local_in.tick();
    return r.take_wake_info();
  };

  const std::uint64_t idle_digest = r.state_digest();
  for (Cycle c = 1; c <= 1'000; ++c) {
    const WakeInfo w = cycle(c);
    ASSERT_FALSE(w.retick) << "cycle " << c;
    ASSERT_EQ(w.timer, 0u) << "cycle " << c;
    ASSERT_EQ(w.wrote_fwd, 0) << "cycle " << c;
    ASSERT_EQ(w.wrote_back, 0) << "cycle " << c;
    ASSERT_EQ(r.state_digest(), idle_digest) << "cycle " << c;
  }
  EXPECT_EQ(meter.total_pj(), 0.0);
  EXPECT_EQ(r.tx_buffer_occupancy(), 0);
  EXPECT_EQ(r.rtx_buffer_occupancy(), 0);
  EXPECT_EQ(r.probe_route_entries(), 0u);
  EXPECT_TRUE(ejected.empty());

  // A flit arriving on a wire gives the router work, and it actually works.
  Flit f = make_flit(FlitType::kHeadTail, 1, 1, 0, 0, 0xBEEF);
  f.vc = 0;
  east_in.write(f);
  east_in.tick();
  EXPECT_TRUE(cycle(1'001).retick);
  WakeInfo w;
  for (Cycle c = 1'002; c <= 1'020; ++c) w = cycle(c);
  ASSERT_EQ(ejected.size(), 1u);
  EXPECT_GT(meter.total_pj(), 0.0);
  EXPECT_FALSE(w.retick);  // Drained back to idle.
}

}  // namespace
}  // namespace ftnoc
