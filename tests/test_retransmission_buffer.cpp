// Unit tests for the barrel-shifter retransmission buffer (§3.1, Figure 3).

#include "core/retransmission_buffer.hpp"

#include <gtest/gtest.h>

namespace ftnoc {
namespace {

Flit flit(PacketId pid, std::uint8_t seq, FlitType t = FlitType::kBody) {
  return make_flit(t, pid, 0, 1, seq, pid * 100 + seq);
}

TEST(RetransmissionBuffer, StartsEmpty) {
  RetransmissionBuffer b(3);
  EXPECT_EQ(b.occupancy(), 0);
  EXPECT_EQ(b.free_slots(), 3);
  EXPECT_FALSE(b.has_pending());
}

TEST(RetransmissionBuffer, RecordsTransmissions) {
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0), 10);
  b.record_transmission(flit(1, 1), 11);
  EXPECT_EQ(b.sent_count(), 2);
  EXPECT_EQ(b.occupancy(), 2);
}

TEST(RetransmissionBuffer, BarrelRetiresOldestWhenFull) {
  RetransmissionBuffer b(3);
  for (int i = 0; i < 5; ++i) {
    b.record_transmission(flit(1, static_cast<std::uint8_t>(i)),
                          static_cast<Cycle>(10 + i));
  }
  // Only the 3 most recent remain.
  EXPECT_EQ(b.sent_count(), 3);
}

TEST(RetransmissionBuffer, NackRollsBackAllSentInOrder) {
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0), 10);
  b.record_transmission(flit(1, 1), 11);
  b.record_transmission(flit(1, 2), 12);
  EXPECT_EQ(b.on_nack(), 3);
  EXPECT_EQ(b.pending_count(), 3);
  EXPECT_EQ(b.sent_count(), 0);
  // Replay order = original transmission order (oldest first, Figure 4).
  EXPECT_EQ(b.front_pending().seq, 0);
  EXPECT_TRUE(b.front_pending_credit_held());
}

TEST(RetransmissionBuffer, ReplayCycleMatchesFigure4) {
  // H1 errored; D2 D3 were in flight; the sender replays H1 D2 D3.
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0, FlitType::kHead), 0);
  b.record_transmission(flit(1, 1), 1);
  b.record_transmission(flit(1, 2), 2);
  ASSERT_EQ(b.on_nack(), 3);
  for (std::uint8_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(b.has_pending());
    Flit f = b.front_pending();
    EXPECT_EQ(f.seq, seq);
    b.record_transmission(f, static_cast<Cycle>(3 + seq));  // Replay.
  }
  EXPECT_FALSE(b.has_pending());
  EXPECT_EQ(b.sent_count(), 3);
}

TEST(RetransmissionBuffer, SecondNackDuringReplayRollsBackAgain) {
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0), 0);
  b.record_transmission(flit(1, 1), 1);
  b.on_nack();
  Flit f = b.front_pending();
  b.record_transmission(f, 3);  // Replay flit 0.
  // The replay itself got hit: NACK again.
  EXPECT_EQ(b.on_nack(), 1);
  EXPECT_EQ(b.front_pending().seq, 0);
  EXPECT_EQ(b.pending_count(), 2);  // flit 0 (rolled back) + flit 1.
}

TEST(RetransmissionBuffer, RetireExpiredDropsOnlyOldFlits) {
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0), 10);
  b.record_transmission(flit(1, 1), 12);
  b.retire_expired(13);  // age(0)=3 — still NACKable; age(1)=1.
  EXPECT_EQ(b.sent_count(), 2);
  b.retire_expired(14);  // age(0)=4 > window: retire.
  EXPECT_EQ(b.sent_count(), 1);
  b.retire_expired(16);
  EXPECT_EQ(b.sent_count(), 0);
}

TEST(RetransmissionBuffer, StaleFlitsAreNeverReplayedAfterExpiry) {
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0), 0);
  b.retire_expired(100);
  // A (spurious) late NACK finds nothing to roll back.
  EXPECT_EQ(b.on_nack(), 0);
  EXPECT_FALSE(b.has_pending());
}

TEST(RetransmissionBuffer, AbsorbHoldsUnsentFlitsWithoutCredit) {
  RetransmissionBuffer b(3);
  b.absorb(flit(7, 0, FlitType::kHead));
  b.absorb(flit(7, 1));
  EXPECT_EQ(b.pending_count(), 2);
  EXPECT_FALSE(b.front_pending_credit_held());
  EXPECT_EQ(b.free_slots(), 1);
}

TEST(RetransmissionBuffer, AbsorbedFlitTransmissionConsumesPendingSlot) {
  RetransmissionBuffer b(3);
  b.absorb(flit(7, 0));
  Flit f = b.front_pending();
  b.record_transmission(f, 5);
  EXPECT_EQ(b.pending_count(), 0);
  EXPECT_EQ(b.sent_count(), 1);
}

TEST(RetransmissionBuffer, ContainsPacketScansBothRegions) {
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0), 0);
  b.absorb(flit(2, 0));
  EXPECT_TRUE(b.contains_packet(1));
  EXPECT_TRUE(b.contains_packet(2));
  EXPECT_FALSE(b.contains_packet(3));
}

TEST(RetransmissionBuffer, PendingContainsMatchesPacketAndSeq) {
  RetransmissionBuffer b(6);
  // A replay round in flight: seq 3's entry is still pending (its staged
  // copy has not flushed) when a second NACK rolls seqs 0-2 back in front
  // of it.
  b.record_transmission(flit(1, 0), 10);
  b.record_transmission(flit(1, 1), 11);
  b.record_transmission(flit(1, 2), 12);
  b.push_pending_back(flit(1, 3));
  EXPECT_EQ(b.on_nack(), 3);
  // The pending region is now {0, 1, 2, 3}: seq 3 is present but not at
  // the front, which is exactly what the staged-replay squash must see.
  EXPECT_EQ(b.front_pending().seq, 0);
  EXPECT_TRUE(b.pending_contains(1, 3));
  EXPECT_TRUE(b.pending_contains(1, 0));
  EXPECT_FALSE(b.pending_contains(1, 4));
  EXPECT_FALSE(b.pending_contains(2, 3));
}

TEST(RetransmissionBuffer, UtilizationTracksOccupancy) {
  // The network samples barrel utilization as occupancy() / depth().
  RetransmissionBuffer b(3);
  EXPECT_EQ(b.occupancy(), 0);
  b.record_transmission(flit(1, 0), 0);
  EXPECT_EQ(b.occupancy(), 1);
  b.record_transmission(flit(1, 1), 1);
  b.record_transmission(flit(1, 2), 2);
  EXPECT_EQ(b.occupancy(), b.depth());
  EXPECT_EQ(b.free_slots(), 0);
}

TEST(RetransmissionBuffer, ClearEmptiesEverything) {
  RetransmissionBuffer b(3);
  b.record_transmission(flit(1, 0), 0);
  b.absorb(flit(2, 0));
  b.clear();
  EXPECT_EQ(b.occupancy(), 0);
}

TEST(RetransmissionBufferDeath, PopPendingOnEmptyAborts) {
  RetransmissionBuffer b(3);
  EXPECT_DEATH(b.pop_pending(), "FTNOC_CHECK");
}

TEST(RetransmissionBufferDeath, AbsorbBeyondCapacityAborts) {
  RetransmissionBuffer b(3);
  b.absorb(flit(1, 0));
  b.absorb(flit(1, 1));
  b.absorb(flit(1, 2));
  EXPECT_DEATH(b.absorb(flit(1, 3)), "FTNOC_CHECK");
}

}  // namespace
}  // namespace ftnoc
