// Model-based property test for the retransmission barrel shifter: random
// operation sequences are validated against a simple reference model built
// from plain vectors, plus protocol-level invariants.

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "core/retransmission_buffer.hpp"

namespace ftnoc {
namespace {

struct RefEntry {
  PacketId pid;
  std::uint8_t seq;
  Cycle sent_at;
  bool credit_held;
};

// A transparent reimplementation of the intended semantics.
class ReferenceModel {
 public:
  explicit ReferenceModel(int depth, Cycle window)
      : depth_(depth), window_(window) {}

  void record(PacketId pid, std::uint8_t seq, Cycle now) {
    if (!pending_.empty() && pending_.front().pid == pid &&
        pending_.front().seq == seq) {
      pending_.pop_front();
    }
    if (static_cast<int>(sent_.size() + pending_.size()) >= depth_) {
      sent_.pop_front();
    }
    sent_.push_back({pid, seq, now, true});
  }

  void retire(Cycle now) {
    while (!sent_.empty() && now - sent_.front().sent_at > window_) {
      sent_.pop_front();
    }
  }

  int nack() {
    const int n = static_cast<int>(sent_.size());
    while (!sent_.empty()) {
      RefEntry e = sent_.back();
      sent_.pop_back();
      e.credit_held = true;
      pending_.push_front(e);
    }
    return n;
  }

  void absorb(PacketId pid, std::uint8_t seq) {
    pending_.push_back({pid, seq, 0, false});
  }

  int occupancy() const {
    return static_cast<int>(sent_.size() + pending_.size());
  }
  bool has_pending() const { return !pending_.empty(); }
  const RefEntry& front_pending() const { return pending_.front(); }

  std::deque<RefEntry> sent_;
  std::deque<RefEntry> pending_;
  int depth_;
  Cycle window_;
};

TEST(RtxBufferProperty, RandomOpsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const int depth = 3 + static_cast<int>(rng.next_below(3));  // 3..5
    RetransmissionBuffer buf(depth);
    ReferenceModel ref(depth, RetransmissionBuffer::kDefaultNackWindow);
    PacketId pid = 1;
    std::uint8_t seq = 0;

    for (Cycle now = 1; now < 3000; ++now) {
      buf.retire_expired(now);
      ref.retire(now);

      const auto op = rng.next_below(10);
      if (op < 4) {
        // Transmit: either the front pending flit (replay) or a fresh one.
        if (buf.has_pending()) {
          const Flit f = buf.front_pending();
          buf.record_transmission(f, now);
          ref.record(f.packet_id, f.seq, now);
        } else if (buf.can_accept(now)) {
          const Flit f = make_flit(FlitType::kBody, pid, 0, 1, seq, 0);
          buf.record_transmission(f, now);
          ref.record(pid, seq, now);
          if (++seq == 4) {
            seq = 0;
            ++pid;
          }
        }
      } else if (op == 4) {
        EXPECT_EQ(buf.on_nack(), ref.nack()) << "seed=" << seed;
      } else if (op == 5 && buf.free_slots() > 0) {
        const Flit f =
            make_flit(FlitType::kBody, 9000 + pid, 0, 1, seq, 0);
        buf.absorb(f);
        ref.absorb(9000 + pid, seq);
      }

      // Invariants and full state agreement.
      ASSERT_EQ(buf.occupancy(), ref.occupancy()) << "seed=" << seed;
      ASSERT_EQ(buf.sent_count(), static_cast<int>(ref.sent_.size()));
      ASSERT_EQ(buf.pending_count(), static_cast<int>(ref.pending_.size()));
      ASSERT_LE(buf.occupancy(), depth);
      if (buf.has_pending()) {
        ASSERT_EQ(buf.front_pending().packet_id, ref.front_pending().pid);
        ASSERT_EQ(buf.front_pending().seq, ref.front_pending().seq);
        ASSERT_EQ(buf.front_pending_credit_held(),
                  ref.front_pending().credit_held);
      }
    }
  }
}

TEST(RtxBufferProperty, NackNeverResurrectsExpiredFlits) {
  // Protocol safety: whatever the op sequence, a NACK must only replay
  // flits sent within the NACK window.
  Rng rng(77);
  RetransmissionBuffer buf(3);
  int n_sends = 0;
  for (Cycle now = 1; now < 2000; ++now) {
    buf.retire_expired(now);
    if (rng.bernoulli(0.4)) {
      if (buf.has_pending()) {
        buf.record_transmission(buf.front_pending(), now);
      } else if (buf.can_accept(now)) {
        buf.record_transmission(
            make_flit(FlitType::kBody, 1, 0, 1,
                      static_cast<std::uint8_t>(n_sends % 250), 0),
            now);
        ++n_sends;
      }
    }
    if (rng.bernoulli(0.1)) {
      const int rolled = buf.on_nack();
      // Every rolled-back flit must have been sent within the window.
      // (The sent region holds at most the last `window+1` cycles' sends.)
      ASSERT_LE(rolled, 3);
      // Drain the pending region again so state stays sane.
      while (buf.has_pending()) {
        buf.record_transmission(buf.front_pending(), now);
      }
    }
  }
}

TEST(RtxBufferProperty, UtilizationIsAlwaysAFraction) {
  // The network samples barrel utilization as occupancy() / depth().
  Rng rng(5);
  RetransmissionBuffer buf(4);
  long long occupied = 0;
  for (Cycle now = 1; now < 500; ++now) {
    buf.retire_expired(now);
    if (rng.bernoulli(0.5) && buf.can_accept(now)) {
      buf.record_transmission(
          make_flit(FlitType::kBody, 1, 0, 1, 0, 0), now);
    }
    ASSERT_GE(buf.occupancy(), 0);
    ASSERT_LE(buf.occupancy(), buf.depth());
    occupied += buf.occupancy();
  }
  EXPECT_GT(occupied, 0);
}

}  // namespace
}  // namespace ftnoc
