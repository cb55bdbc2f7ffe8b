// DAMQ admission at router level (DESIGN.md §4.11): each input VC is a
// private ring of K + V*(T-K) slots, and the buffer policy is only the
// admission rule over those rings — a VC below its reserve K is always
// admitted, past it the port's shared region V*(T-K) must have room.
//
// The fixture is the line 0 - 1 - 2. Routers 0 and 1 are built; the test
// plays router 0's PE and node 2, a sink that returns no credits until
// told to. Long packets from PE 0 to node 2 therefore back up: router 1
// fills its East credits, then its West input VC fills as far as router
// 0's credits allow. Every scenario runs an optimized Router line and a
// ReferenceRouter line in lock-step; each cycle the two must agree on
// every state digest, and the sender-side credit budget of link 0 -> 1
// must equal what the receiver and the wire hold (the conservation walk
// of Network::check_credit_conservation, reduced to one link).

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "core/flit.hpp"
#include "noc/reference_router.hpp"
#include "noc/router.hpp"
#include "noc/stats.hpp"

namespace ftnoc {
namespace {

constexpr PortId kE = static_cast<PortId>(Direction::kEast);
constexpr PortId kW = static_cast<PortId>(Direction::kWest);
constexpr PortId kL = static_cast<PortId>(Direction::kLocal);
constexpr NodeId kSinkNode = 2;
constexpr int kPacketLength = 60;

class Line {
 public:
  Line(const SimConfig& cfg, bool reference) : cfg_(cfg), topo_(3, 1, false) {
    for (NodeId n = 0; n < 2; ++n) {
      if (reference) {
        r_[n] = std::make_unique<ReferenceRouter>(n, cfg_, topo_, nullptr,
                                                  nullptr, &stats_);
      } else {
        r_[n] = std::make_unique<Router>(n, cfg_, topo_, nullptr, nullptr,
                                         &stats_);
      }
      r_[n]->set_eject_fn(
          [](const Flit&, Cycle) { ADD_FAILURE() << "unexpected ejection"; });
    }
    r_[0]->connect(kE, &w10_, &w01_);
    r_[0]->connect(kL, &pe0_, nullptr);
    r_[1]->connect(kW, &w01_, &w10_);
    r_[1]->connect(kE, &w21_, &w12_);
    r_[1]->connect(kL, &pe1_, nullptr);
    lane_credits_.fill(cfg_.vc_buffer_depth);
  }

  /// Queues one packet on PE 0's lane `lane`, bound for the sink.
  void queue_packet(VcId lane, PacketId pid) {
    for (int i = 0; i < kPacketLength; ++i) {
      const FlitType t = i == 0                   ? FlitType::kHead
                         : i == kPacketLength - 1 ? FlitType::kTail
                                                  : FlitType::kBody;
      Flit f = make_flit(t, pid, 0, kSinkNode, static_cast<std::uint8_t>(i),
                         0, pid * 1000 + static_cast<std::uint64_t>(i));
      f.vc = lane;
      queued_[lane].push_back(f);
    }
  }

  /// Node 2 hands back one buffer slot of router 1's East VC `v`.
  void sink_return_credit(VcId v) {
    w12_.write(Credit{v});
    ++returned_[v];
  }

  /// One cycle: PE 0 injects (one flit, round-robin over lanes with a
  /// credit), the sink drains its wire, both routers step, wires tick.
  void step() {
    for (const Credit& c : pe0_.credit.read()) ++lane_credits_[c.vc];
    for (int k = 0; k < kMaxVcs && pe0_.flit.can_write(); ++k) {
      const int lane = (next_lane_ + k) % cfg_.num_vcs;
      auto& q = queued_[lane];
      if (q.empty() || lane_credits_[lane] == 0) continue;
      pe0_.write(q.front());
      q.erase(q.begin());
      --lane_credits_[lane];
      next_lane_ = (lane + 1) % cfg_.num_vcs;
    }
    if (const Flit* f = w12_.flit.read()) ++sunk_[f->vc];
    r_[0]->step(now_);
    r_[1]->step(now_);
    for (Wire* w : {&pe0_, &pe1_, &w01_, &w10_, &w12_, &w21_}) w->tick();
    ++now_;
  }

  /// Sender-side budget of link 0 -> 1 VC `v` minus everything holding
  /// one of its slots: free or bound credits at router 0, a flit or
  /// credits on the wire, and router 1's West buffer. Zero when the
  /// credit protocol conserves slots.
  int link_slot_imbalance(VcId v) const {
    int held = r_[0]->held_credits(kE, v);
    if (w01_.flit.peek() && w01_.flit.peek()->vc == v) ++held;
    for (const Credit& c : w01_.credit.peek()) held += c.vc == v ? 1 : 0;
    held += r_[1]->input_buffer_size(kW, v);
    return r_[0]->credit_budget(kE, v) - held;
  }

  const RouterIface& sender() const { return *r_[0]; }
  const RouterIface& receiver() const { return *r_[1]; }
  int sunk(VcId v) const { return sunk_[v]; }
  /// Flits of router 1's East VC `v` the sink holds without a credit back.
  int sink_held(VcId v) const { return sunk_[v] - returned_[v]; }
  bool lane_idle(VcId lane) const { return queued_[lane].empty(); }

 private:
  static constexpr int kMaxVcs = 6;
  const SimConfig& cfg_;
  Topology topo_;
  StatsCollector stats_;
  std::array<std::unique_ptr<RouterIface>, 2> r_;
  Wire pe0_, pe1_;  // PE -> router 0 / router 1.
  Wire w01_, w10_;  // Router 0 <-> router 1.
  Wire w12_, w21_;  // Router 1 <-> the sink.
  std::array<std::vector<Flit>, kMaxVcs> queued_;
  std::array<int, kMaxVcs> lane_credits_{};
  std::array<int, kMaxVcs> sunk_{};
  std::array<int, kMaxVcs> returned_{};
  int next_lane_ = 0;
  Cycle now_ = 0;
};

SimConfig line_config(BufferPolicyKind policy, int reserve, int num_vcs = 2,
                      int depth = 4) {
  SimConfig cfg;
  cfg.mesh_width = 3;
  cfg.mesh_height = 1;
  cfg.num_vcs = num_vcs;
  cfg.vc_buffer_depth = depth;
  cfg.packet_length = kPacketLength;
  cfg.protection = LinkProtection::kNone;
  cfg.routing = RoutingAlgorithm::kXY;
  cfg.buffer_policy = policy;
  cfg.damq_reserve_slots = reserve;
  EXPECT_EQ(cfg.validate(), std::nullopt);
  return cfg;
}

// Flits router 1's West VCs hold above their reserve K: the shared
// region in use, recomputed from the ring sizes.
int west_shared_in_use(const Line& l, const SimConfig& cfg) {
  int n = 0;
  for (VcId v = 0; v < cfg.num_vcs; ++v) {
    const int above = l.receiver().input_buffer_size(kW, v) - cfg.input_reserve();
    n += above > 0 ? above : 0;
  }
  return n;
}

// Steps every line `cycles` times. After each cycle all lines must agree
// on both routers' state digests, every link 0 -> 1 VC must conserve its
// slots, no input VC may exceed its ring, and the flits router 1's West
// VCs hold above their reserve may not exceed the shared region.
void run(std::vector<Line*> lines, const SimConfig& cfg, int cycles) {
  for (int c = 0; c < cycles; ++c) {
    for (Line* l : lines) l->step();
    for (Line* l : lines) {
      for (VcId v = 0; v < cfg.num_vcs; ++v) {
        ASSERT_EQ(l->link_slot_imbalance(v), 0) << "cycle " << c << " vc " << v;
        ASSERT_LE(l->receiver().input_buffer_size(kW, v), cfg.vc_capacity());
      }
      ASSERT_LE(west_shared_in_use(*l, cfg), cfg.input_shared_slots())
          << "cycle " << c;
      ASSERT_EQ(l->sender().state_digest(), lines[0]->sender().state_digest())
          << "cycle " << c;
      ASSERT_EQ(l->receiver().state_digest(),
                lines[0]->receiver().state_digest())
          << "cycle " << c;
    }
  }
}

// The VC of router 1's West port holding the most flits.
VcId fullest_west_vc(const Line& l, int num_vcs) {
  VcId best = 0;
  for (VcId v = 1; v < num_vcs; ++v) {
    if (l.receiver().input_buffer_size(kW, v) >
        l.receiver().input_buffer_size(kW, best)) {
      best = v;
    }
  }
  return best;
}

// One greedy VC takes its reserve plus the whole shared region, on both
// sides of the link: router 1 buffers K + V*(T-K) flits in it and router
// 0's budget for it has grown to match. K = 1 is the widest ring.
TEST(DamqAdmission, OneVcFillsToReservePlusSharedRegion) {
  for (const int reserve : {1, 3}) {
    const SimConfig cfg = line_config(BufferPolicyKind::kDamq, reserve);
    const int capacity = cfg.vc_capacity();
    ASSERT_EQ(capacity, reserve + 2 * (4 - reserve));
    Line opt(cfg, false);
    Line ref(cfg, true);
    for (Line* l : {&opt, &ref}) l->queue_packet(0, 1);
    run({&opt, &ref}, cfg, 80);
    for (const Line* l : {&opt, &ref}) {
      const VcId v = fullest_west_vc(*l, cfg.num_vcs);
      EXPECT_EQ(l->receiver().input_buffer_size(kW, v), capacity) << reserve;
      EXPECT_EQ(l->sender().credit_budget(kE, v), capacity) << reserve;
      EXPECT_EQ(l->receiver().input_buffer_size(kW, 1 - v), 0) << reserve;
      EXPECT_EQ(l->sender().credit_budget(kE, 1 - v), reserve);
      // Router 1 sent the same fill on to the silent sink.
      EXPECT_EQ(l->sunk(0) + l->sunk(1), capacity) << reserve;
    }
  }
}

// Random traffic through the DAMQ shared pool of router 1's West port,
// checked each cycle against the deque-based ReferenceRouter. PE 0 starts
// packets on random lanes; the sink returns credits at a rate that swings
// between slow (the pool fills) and fast (it drains). The pool must be
// exhausted at least once, so admission past the reserve is exercised.
void run_damq_property(int num_vcs, int depth, int reserve,
                       std::uint64_t seed) {
  const SimConfig cfg =
      line_config(BufferPolicyKind::kDamq, reserve, num_vcs, depth);
  ASSERT_GT(cfg.input_shared_slots(), 0);
  Line opt(cfg, false);
  Line ref(cfg, true);
  Rng rng(seed);
  PacketId next_pid = 1;
  int exhausted_cycles = 0;
  for (int c = 0; c < 4000; ++c) {
    for (VcId lane = 0; lane < num_vcs; ++lane) {
      if (opt.lane_idle(lane) && rng.bernoulli(0.2)) {
        for (Line* l : {&opt, &ref}) l->queue_packet(lane, next_pid);
        ++next_pid;
      }
    }
    const double drain = (c / 250) % 2 == 0 ? 0.05 : 0.7;
    for (VcId v = 0; v < num_vcs; ++v) {
      if (opt.sink_held(v) > 0 && rng.bernoulli(drain)) {
        for (Line* l : {&opt, &ref}) l->sink_return_credit(v);
      }
    }
    ASSERT_NO_FATAL_FAILURE(run({&opt, &ref}, cfg, 1)) << "cycle " << c;
    if (west_shared_in_use(opt, cfg) == cfg.input_shared_slots()) {
      ++exhausted_cycles;
    }
  }
  EXPECT_GT(exhausted_cycles, 0);
  EXPECT_GT(next_pid, 20u);
}

TEST(DamqPool, MatchesDequeOracleSmallReserve) {
  run_damq_property(/*num_vcs=*/3, /*depth=*/4, /*reserve=*/1, 0xDA301);
}

TEST(DamqPool, MatchesDequeOracleMidReserve) {
  run_damq_property(/*num_vcs=*/4, /*depth=*/6, /*reserve=*/3, 0xDA302);
}

// With the shared region exhausted by one VC, a second VC is still
// admitted up to its reserve, and no further. Returning a slot the greedy
// VC borrowed refunds the shared region, not the greedy VC's reserve.
TEST(DamqAdmission, SharedExhaustionStarvesOnlyAboveReserve) {
  const int reserve = 2;
  const SimConfig cfg = line_config(BufferPolicyKind::kDamq, reserve);
  const int capacity = cfg.vc_capacity();
  Line opt(cfg, false);
  Line ref(cfg, true);
  for (Line* l : {&opt, &ref}) l->queue_packet(0, 1);
  run({&opt, &ref}, cfg, 80);
  const VcId greedy = fullest_west_vc(opt, cfg.num_vcs);
  ASSERT_EQ(opt.receiver().input_buffer_size(kW, greedy), capacity);

  for (Line* l : {&opt, &ref}) l->queue_packet(1, 2);
  run({&opt, &ref}, cfg, 80);
  for (const Line* l : {&opt, &ref}) {
    EXPECT_EQ(l->receiver().input_buffer_size(kW, greedy), capacity);
    EXPECT_EQ(l->receiver().input_buffer_size(kW, 1 - greedy), reserve);
    EXPECT_EQ(l->sender().credit_budget(kE, 1 - greedy), reserve);
    EXPECT_EQ(l->sunk(0) + l->sunk(1), capacity + reserve);
  }

  // The sink frees one slot of router 1's greedy East VC: router 1 repays
  // its shared borrow, so exactly one more flit leaves router 1.
  const int sunk_before = opt.sunk(0) + opt.sunk(1);
  const VcId east_greedy = opt.sunk(0) > opt.sunk(1) ? 0 : 1;
  for (Line* l : {&opt, &ref}) l->sink_return_credit(east_greedy);
  run({&opt, &ref}, cfg, 40);
  for (const Line* l : {&opt, &ref}) {
    EXPECT_EQ(l->sunk(0) + l->sunk(1), sunk_before + 1);
    EXPECT_EQ(l->receiver().credit_budget(kE, 0) +
                  l->receiver().credit_budget(kE, 1),
              2 * reserve + cfg.input_shared_slots());
  }
}

// K = T leaves no shared region: damq is then the private layout, state
// digest for state digest, and every VC stops at T.
TEST(DamqAdmission, ReserveEqualsDepthIsPrivate) {
  const SimConfig priv = line_config(BufferPolicyKind::kPrivateVc, 2);
  const SimConfig full = line_config(BufferPolicyKind::kDamq, 4);
  ASSERT_EQ(full.input_shared_slots(), 0);
  ASSERT_EQ(full.vc_capacity(), priv.vc_buffer_depth);
  Line priv_opt(priv, false);
  Line priv_ref(priv, true);
  Line full_opt(full, false);
  Line full_ref(full, true);
  const std::vector<Line*> lines = {&priv_opt, &priv_ref, &full_opt,
                                    &full_ref};
  for (Line* l : lines) {
    l->queue_packet(0, 1);
    l->queue_packet(1, 2);
  }
  run(lines, priv, 120);
  for (const Line* l : lines) {
    for (VcId v = 0; v < 2; ++v) {
      EXPECT_EQ(l->receiver().input_buffer_size(kW, v), 4);
      EXPECT_EQ(l->sender().credit_budget(kE, v), 4);
      EXPECT_EQ(l->sunk(v), 4);
    }
  }
}

}  // namespace
}  // namespace ftnoc
