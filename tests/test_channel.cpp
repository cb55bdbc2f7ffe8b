// Unit tests for the one-cycle wire channels and the Wire bundle.

#include "noc/channel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "noc/router_iface.hpp"

namespace ftnoc {
namespace {

TEST(Channel, ValueAppearsAfterTick) {
  Channel<int> ch;
  ch.write(42);
  EXPECT_EQ(ch.read(), nullptr);  // Not visible this cycle.
  ch.tick();
  const int* v = ch.read();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 42);
}

TEST(Channel, ReadConsumes) {
  Channel<int> ch;
  ch.write(1);
  ch.tick();
  EXPECT_NE(ch.read(), nullptr);
  EXPECT_EQ(ch.read(), nullptr);
}

TEST(Channel, UnreadValueIsDroppedOnTick) {
  Channel<int> ch;
  ch.write(1);
  ch.tick();  // Value now current, never read.
  ch.tick();  // Wire doesn't hold state.
  EXPECT_EQ(ch.read(), nullptr);
}

TEST(Channel, CanWriteReflectsPendingWrite) {
  Channel<int> ch;
  EXPECT_TRUE(ch.can_write());
  ch.write(1);
  EXPECT_FALSE(ch.can_write());
  ch.tick();
  EXPECT_TRUE(ch.can_write());
}

TEST(Channel, PeekDoesNotConsume) {
  Channel<int> ch;
  ch.write(7);
  ch.tick();
  EXPECT_NE(ch.peek(), nullptr);
  EXPECT_NE(ch.read(), nullptr);
}

TEST(ChannelDeath, DoubleWriteInOneCycleAborts) {
  Channel<int> ch;
  ch.write(1);
  EXPECT_DEATH(ch.write(2), "FTNOC_CHECK");
}

TEST(MultiChannel, CarriesSeveralValuesPerCycle) {
  MultiChannel<int> ch;
  ch.write(1);
  ch.write(2);
  ch.write(3);
  ch.tick();
  const auto v = ch.read();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 3);
}

TEST(MultiChannel, ReadDrains) {
  MultiChannel<int> ch;
  ch.write(1);
  ch.tick();
  EXPECT_EQ(ch.read().size(), 1u);
  EXPECT_TRUE(ch.read().empty());
}

TEST(MultiChannel, CyclesAreIndependent) {
  MultiChannel<int> ch;
  ch.write(1);
  ch.tick();
  ch.write(2);  // Next cycle's value.
  EXPECT_EQ(ch.read().size(), 1u);
  ch.tick();
  const auto v = ch.read();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 2);
}

TEST(MultiChannel, ReadTwiceYieldsNothingTheSecondTime) {
  MultiChannel<int> ch;
  ch.write(4);
  ch.write(5);
  ch.tick();
  const auto first = ch.read();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[1], 5);
  EXPECT_TRUE(ch.read().empty());
  EXPECT_TRUE(ch.peek().empty());
  EXPECT_TRUE(ch.idle());  // Consumed and nothing latched: settled.
}

// --- Wire vs a tick-everything reference ------------------------------------
// Wire::tick flips only the channels named in cur_mask | next_mask. The
// reference below is the plain model it replaces: two optionals per
// channel (a vector pair for credits), all five ticked every cycle, the
// readable mask recomputed from what the channels hold.

struct RefWire {
  std::optional<Flit> flit_cur, flit_next;
  std::vector<Credit> credit_cur, credit_next;
  std::optional<NackMsg> nack_cur, nack_next;
  std::optional<ProbeSignal> probe_cur, probe_next;
  std::optional<ActivationSignal> act_cur, act_next;
  std::uint8_t cur_mask = 0;

  void tick() {
    flit_cur = flit_next;
    flit_next.reset();
    credit_cur = credit_next;
    credit_next.clear();
    nack_cur = nack_next;
    nack_next.reset();
    probe_cur = probe_next;
    probe_next.reset();
    act_cur = act_next;
    act_next.reset();
    cur_mask = static_cast<std::uint8_t>(
        (flit_cur ? Wire::kCurFlit : 0) |
        (!credit_cur.empty() ? Wire::kCurCredit : 0) |
        (nack_cur ? Wire::kCurNack : 0) | (probe_cur ? Wire::kCurProbe : 0) |
        (act_cur ? Wire::kCurActivation : 0));
  }
  bool idle() const {
    return !flit_cur && !flit_next && credit_cur.empty() &&
           credit_next.empty() && !nack_cur && !nack_next && !probe_cur &&
           !probe_next && !act_cur && !act_next;
  }
};

void expect_same_view(const Wire& w, const RefWire& r, int cycle) {
  SCOPED_TRACE(::testing::Message() << "cycle " << cycle);
  ASSERT_EQ(w.flit.peek() != nullptr, r.flit_cur.has_value());
  if (r.flit_cur) {
    EXPECT_EQ(w.flit.peek()->packet_id, r.flit_cur->packet_id);
  }
  const auto credits = w.credit.peek();
  ASSERT_EQ(credits.size(), r.credit_cur.size());
  for (std::size_t i = 0; i < credits.size(); ++i) {
    EXPECT_EQ(credits[i].vc, r.credit_cur[i].vc);
  }
  ASSERT_EQ(w.nack.peek() != nullptr, r.nack_cur.has_value());
  if (r.nack_cur) {
    EXPECT_EQ(w.nack.peek()->vc, r.nack_cur->vc);
  }
  ASSERT_EQ(w.probe.peek() != nullptr, r.probe_cur.has_value());
  if (r.probe_cur) {
    EXPECT_EQ(w.probe.peek()->probe_id, r.probe_cur->probe_id);
  }
  ASSERT_EQ(w.activation.peek() != nullptr, r.act_cur.has_value());
  if (r.act_cur) {
    EXPECT_EQ(w.activation.peek()->probe_id, r.act_cur->probe_id);
  }
  EXPECT_EQ(w.idle(), r.idle());
}

TEST(Wire, RandomOpsMatchTickEverythingReference) {
  Wire w;
  RefWire r;
  std::uint8_t fwd_mirror = 0xFF;
  std::uint8_t back_mirror = 0xFF;
  w.fwd_sig = &fwd_mirror;
  w.back_sig = &back_mirror;
  Rng rng(0x5EED);
  std::uint32_t next_id = 1;
  int dropped_unconsumed = 0;
  int idle_ticks = 0;
  for (int cycle = 0; cycle < 20000; ++cycle) {
    // Producers. Writes are sparse so plenty of cycles tick an idle wire.
    ASSERT_EQ(w.flit.can_write(), !r.flit_next.has_value());
    if (rng.bernoulli(0.3)) {
      Flit f;
      f.packet_id = next_id++;
      w.write(f);
      r.flit_next = f;
    }
    const int ncredits =
        rng.bernoulli(0.25) ? 1 + static_cast<int>(rng.next_below(4)) : 0;
    for (int i = 0; i < ncredits; ++i) {
      const Credit c{static_cast<VcId>(rng.next_below(6))};
      w.write(c);
      r.credit_next.push_back(c);
    }
    if (rng.bernoulli(0.1)) {
      const NackMsg n{static_cast<VcId>(rng.next_below(6))};
      w.write(n);
      r.nack_next = n;
    }
    if (rng.bernoulli(0.1)) {
      ProbeSignal p;
      p.probe_id = next_id++;
      w.write(p);
      r.probe_next = p;
    }
    if (rng.bernoulli(0.1)) {
      ActivationSignal a;
      a.probe_id = next_id++;
      w.write(a);
      r.act_next = a;
    }
    expect_same_view(w, r, cycle);

    // Consumers: read, read and alter in place, or leave the value
    // unconsumed (the tick must drop it).
    switch (rng.next_below(3)) {
      case 0:
        if (r.flit_cur) {
          ASSERT_NE(w.flit.read(), nullptr);
          r.flit_cur.reset();
        }
        break;
      case 1:
        if (Flit* f = w.flit.read()) {
          f->hops = 7;  // Consumers may alter the value in place.
          EXPECT_EQ(w.flit.peek(), nullptr);
          r.flit_cur.reset();
        }
        break;
      default:
        if (r.flit_cur) ++dropped_unconsumed;
        break;
    }
    if (rng.bernoulli(0.5)) {
      const auto got = w.credit.read();
      ASSERT_EQ(got.size(), r.credit_cur.size());
      r.credit_cur.clear();
      if (rng.bernoulli(0.5)) {
        EXPECT_TRUE(w.credit.read().empty());  // A second read is empty.
      }
    }
    if (rng.bernoulli(0.5) && w.nack.read() != nullptr) r.nack_cur.reset();
    if (rng.bernoulli(0.5) && w.probe.read() != nullptr) r.probe_cur.reset();
    if (rng.bernoulli(0.5) && w.activation.read() != nullptr) {
      r.act_cur.reset();
    }
    expect_same_view(w, r, cycle);

    // The edge: alternate the scan kernel's tick() and the event kernel's
    // tick_live().
    if (w.idle()) ++idle_ticks;
    r.tick();
    if (cycle % 2 == 0) {
      w.tick();
    } else {
      EXPECT_EQ(w.tick_live(), !r.idle());
    }
    ASSERT_EQ(w.cur_mask, r.cur_mask) << "cycle " << cycle;
    EXPECT_EQ(w.next_mask, 0);
    EXPECT_EQ(fwd_mirror, w.cur_mask);
    EXPECT_EQ(back_mirror, w.cur_mask);
    expect_same_view(w, r, cycle);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The random mix really exercised the dropped-value and idle-tick paths.
  EXPECT_GT(dropped_unconsumed, 100);
  EXPECT_GT(idle_ticks, 100);
}

TEST(Wire, UnconsumedValueIsDroppedAtTheSecondTick) {
  Wire w;
  Flit f;
  f.packet_id = 42;
  w.write(f);
  w.write(Credit{2});
  w.tick();
  EXPECT_EQ(w.cur_mask, Wire::kCurFlit | Wire::kCurCredit);
  ASSERT_NE(w.flit.peek(), nullptr);
  EXPECT_EQ(w.flit.peek()->packet_id, 42u);
  EXPECT_FALSE(w.tick_live());  // Nobody read it; the wire settles.
  EXPECT_EQ(w.cur_mask, 0);
  EXPECT_EQ(w.flit.peek(), nullptr);
  EXPECT_TRUE(w.credit.peek().empty());
  EXPECT_TRUE(w.idle());
}

TEST(Wire, ScanKernelTickOfAnIdleWireChangesNothing) {
  Wire w;
  std::uint8_t mirror = 0xFF;
  w.fwd_sig = &mirror;
  for (int i = 0; i < 3; ++i) {
    w.tick();
    EXPECT_EQ(w.cur_mask, 0);
    EXPECT_EQ(mirror, 0);
    EXPECT_TRUE(w.idle());
    EXPECT_EQ(w.flit.peek(), nullptr);
    EXPECT_TRUE(w.credit.peek().empty());
    EXPECT_TRUE(w.flit.can_write());
  }
  // And the next write still lands one tick later.
  w.write(NackMsg{3});
  EXPECT_EQ(w.nack.peek(), nullptr);
  w.tick();
  ASSERT_NE(w.nack.peek(), nullptr);
  EXPECT_EQ(w.nack.peek()->vc, 3);
  EXPECT_EQ(mirror, Wire::kCurNack);
}

}  // namespace
}  // namespace ftnoc
