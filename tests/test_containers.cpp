// Property tests for the hot-path containers, each checked against a
// std:: oracle under randomized operation sequences:
//  * InlineVec vs std::vector — the spill (size N -> N+1) and unspill
//    (back to <= N via erase_at) boundaries, insert_at at both ends;
//  * RingDeque vs std::deque — growth while the ring's head has wrapped;
//  * RetransmissionBuffer vs a std::deque re-implementation of the barrel
//    semantics — including the depth-4 case a 4-stage router requires and
//    a depth-6 ring, whose head wraps through more slots.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "common/inline_vec.hpp"
#include "common/ring_deque.hpp"
#include "common/rng.hpp"
#include "core/flit.hpp"
#include "core/retransmission_buffer.hpp"

namespace ftnoc {
namespace {

// ---------------------------------------------------------------------------
// InlineVec vs std::vector.
// ---------------------------------------------------------------------------

TEST(InlineVec, SpillAndUnspillBoundaries) {
  InlineVec<int, 4> v;
  std::vector<int> oracle;
  // Fill to exactly the inline capacity.
  for (int i = 0; i < 4; ++i) {
    v.push_back(i);
    oracle.push_back(i);
  }
  ASSERT_EQ(v.size(), 4u);
  // The N -> N+1 push spills to the heap; contents must survive the move.
  v.push_back(4);
  oracle.push_back(4);
  for (std::size_t i = 0; i < oracle.size(); ++i) ASSERT_EQ(v[i], oracle[i]);
  // Erasing back to N unspills; contents must survive the move back.
  v.erase_at(2);
  oracle.erase(oracle.begin() + 2);
  ASSERT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < oracle.size(); ++i) ASSERT_EQ(v[i], oracle[i]);
  // And a subsequent spill must still work (heap capacity was retained).
  v.push_back(5);
  v.push_back(6);
  oracle.push_back(5);
  oracle.push_back(6);
  for (std::size_t i = 0; i < oracle.size(); ++i) ASSERT_EQ(v[i], oracle[i]);
}

TEST(InlineVec, InsertAtBothEndsAndMiddle) {
  InlineVec<int, 4> v;
  std::vector<int> oracle;
  auto check = [&]() {
    ASSERT_EQ(v.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) ASSERT_EQ(v[i], oracle[i]);
  };
  v.insert_at(0, 10);           // Insert into empty.
  oracle.insert(oracle.begin(), 10);
  check();
  v.insert_at(1, 30);           // i == size() appends.
  oracle.insert(oracle.begin() + 1, 30);
  check();
  v.insert_at(1, 20);           // Middle.
  oracle.insert(oracle.begin() + 1, 20);
  check();
  v.insert_at(0, 5);            // Front, now at inline capacity.
  oracle.insert(oracle.begin(), 5);
  check();
  v.insert_at(2, 15);           // This insert itself spills (4 -> 5).
  oracle.insert(oracle.begin() + 2, 15);
  check();
}

TEST(InlineVec, RandomOpsMatchVectorOracle) {
  InlineVec<int, 4> v;
  std::vector<int> oracle;
  Rng rng(0xBADC0DE);
  int next = 0;
  for (int step = 0; step < 5000; ++step) {
    const double r = rng.next_double();
    if (oracle.empty() || r < 0.40) {
      v.push_back(next);
      oracle.push_back(next);
      ++next;
    } else if (r < 0.65) {
      const auto i = static_cast<std::size_t>(
          rng.next_below(oracle.size() + 1));
      v.insert_at(i, next);
      oracle.insert(oracle.begin() + static_cast<std::ptrdiff_t>(i), next);
      ++next;
    } else if (r < 0.95) {
      const auto i = static_cast<std::size_t>(rng.next_below(oracle.size()));
      v.erase_at(i);
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      v.clear();
      oracle.clear();
    }
    ASSERT_EQ(v.size(), oracle.size()) << "step " << step;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(v[i], oracle[i]) << "step " << step << " index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// RingDeque vs std::deque.
// ---------------------------------------------------------------------------

TEST(RingDeque, RandomOpsMatchDequeOracle) {
  RingDeque<std::vector<int>> q;
  std::deque<std::vector<int>> oracle;
  Rng rng(0xDEC0DE);
  int next = 0;
  for (int step = 0; step < 5000; ++step) {
    // Pushes outweigh pops, so the ring grows (32, 64, ...) while pops
    // and front pushes keep its head away from slot 0.
    const double r = rng.next_double();
    if (oracle.empty() || r < 0.35) {
      q.push_back({next, next});
      oracle.push_back({next, next});
      ++next;
    } else if (r < 0.55) {
      q.push_front({next});
      oracle.push_front({next});
      ++next;
    } else {
      ASSERT_EQ(q.front(), oracle.front()) << "step " << step;
      q.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(q.size(), oracle.size()) << "step " << step;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(q[i], oracle[i]) << "step " << step << " index " << i;
    }
  }
  EXPECT_GT(oracle.size(), 100u);
}

// ---------------------------------------------------------------------------
// RetransmissionBuffer vs a std::deque re-implementation of the barrel.
// ---------------------------------------------------------------------------

// Straight re-implementation of the documented barrel semantics on
// std::deque, mirroring retransmission_buffer.cpp operation by operation.
struct BarrelOracle {
  struct Sent {
    Flit flit;
    Cycle sent_at;
  };
  struct Pending {
    Flit flit;
    bool credit_held;
  };
  int depth;
  Cycle window;
  std::deque<Sent> sent;
  std::deque<Pending> pending;

  int occupancy() const {
    return static_cast<int>(sent.size() + pending.size());
  }
  int free_slots() const { return depth - occupancy(); }
  bool can_accept(Cycle now) const {
    if (free_slots() > 0) return true;
    return !sent.empty() && now - sent.front().sent_at >= window;
  }
  void record_transmission(const Flit& f, Cycle now) {
    if (!pending.empty() && pending.front().flit.packet_id == f.packet_id &&
        pending.front().flit.seq == f.seq) {
      pending.pop_front();
    }
    if (occupancy() >= depth) sent.pop_front();
    sent.push_back({f, now});
  }
  void retire_expired(Cycle now) {
    while (!sent.empty() && now - sent.front().sent_at > window) {
      sent.pop_front();
    }
  }
  int on_nack() {
    const int n = static_cast<int>(sent.size());
    for (int i = n - 1; i >= 0; --i) {
      pending.push_front({sent[static_cast<std::size_t>(i)].flit, true});
    }
    sent.clear();
    return n;
  }
  void absorb(const Flit& f) { pending.push_back({f, false}); }
  void absorb_as_owner(const Flit& f, PacketId pid) {
    std::size_t i = 0;
    while (i < pending.size() && pending[i].flit.packet_id == pid) ++i;
    pending.insert(pending.begin() + static_cast<std::ptrdiff_t>(i),
                   {f, false});
  }
  void push_pending_back(const Flit& f) { pending.push_back({f, true}); }
};

void check_against_oracle(RetransmissionBuffer& b, const BarrelOracle& o) {
  ASSERT_EQ(b.occupancy(), o.occupancy());
  ASSERT_EQ(b.sent_count(), static_cast<int>(o.sent.size()));
  ASSERT_EQ(b.pending_count(), static_cast<int>(o.pending.size()));
  for (int i = 0; i < b.sent_count(); ++i) {
    const auto& e = o.sent[static_cast<std::size_t>(i)];
    ASSERT_EQ(b.sent_flit(i).packet_id, e.flit.packet_id);
    ASSERT_EQ(b.sent_flit(i).seq, e.flit.seq);
    ASSERT_EQ(b.sent_time(i), e.sent_at);
  }
  for (int i = 0; i < b.pending_count(); ++i) {
    const auto& e = o.pending[static_cast<std::size_t>(i)];
    ASSERT_EQ(b.pending_flit(i).packet_id, e.flit.packet_id);
    ASSERT_EQ(b.pending_flit(i).seq, e.flit.seq);
    ASSERT_EQ(b.pending_credit_held(i), e.credit_held);
  }
}

// Random op mix at a given depth. Depth 4 is the 4-stage router's minimum
// (window 4); depth 6 wraps the ring head through more slots between
// the shifting inserts and erases.
void run_barrel_property(int depth, Cycle window, std::uint64_t seed) {
  RetransmissionBuffer b(depth, window);
  BarrelOracle o{depth, window, {}, {}};
  Rng rng(seed);
  Cycle now = 1000;
  PacketId pid = 1;
  std::uint8_t seq = 0;
  for (int step = 0; step < 20000; ++step) {
    now += rng.next_below(2);  // Time advances irregularly.
    const double r = rng.next_double();
    if (r < 0.35) {
      // Transmit: either the front pending flit (replay) or a fresh one.
      Flit f;
      if (b.has_pending() && rng.bernoulli(0.7)) {
        f = b.front_pending();
      } else {
        if (!b.can_accept(now)) continue;
        if (rng.bernoulli(0.2)) {
          ++pid;
          seq = 0;
        }
        f = make_flit(FlitType::kBody, pid, 0, 1, seq++, now);
      }
      b.record_transmission(f, now);
      o.record_transmission(f, now);
    } else if (r < 0.55) {
      b.retire_expired(now);
      o.retire_expired(now);
    } else if (r < 0.70) {
      ASSERT_EQ(b.on_nack(), o.on_nack());
    } else if (r < 0.80 && b.free_slots() > 0) {
      const Flit f = make_flit(FlitType::kBody, pid, 0, 1, seq++, now);
      b.absorb(f);
      o.absorb(f);
    } else if (r < 0.88 && b.free_slots() > 0) {
      const Flit f = make_flit(FlitType::kBody, pid, 0, 1, seq++, now);
      b.absorb_as_owner(f, pid);
      o.absorb_as_owner(f, pid);
    } else if (r < 0.94 && b.free_slots() > 0) {
      const Flit f = make_flit(FlitType::kBody, pid, 0, 1, seq++, now);
      b.push_pending_back(f);
      o.push_pending_back(f);
    } else if (b.has_pending()) {
      const Flit f = b.pop_pending();
      ASSERT_EQ(f.packet_id, o.pending.front().flit.packet_id);
      ASSERT_EQ(f.seq, o.pending.front().flit.seq);
      o.pending.pop_front();
    }
    check_against_oracle(b, o);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at step " << step << " (depth " << depth << ")";
    }
  }
}

TEST(RetransmissionBarrel, Depth3MatchesDequeOracle) {
  run_barrel_property(3, RetransmissionBuffer::kDefaultNackWindow, 11);
}

TEST(RetransmissionBarrel, Depth4FourStageWindowMatchesDequeOracle) {
  run_barrel_property(4, RetransmissionBuffer::kDefaultNackWindow + 1, 22);
}

TEST(RetransmissionBarrel, Depth6SpillsMatchDequeOracle) {
  run_barrel_property(6, RetransmissionBuffer::kDefaultNackWindow, 33);
}

}  // namespace
}  // namespace ftnoc
