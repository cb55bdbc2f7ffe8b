// Wake-up regression tests for the event kernel (DESIGN.md §4.10): every
// class of *delayed* action must keep its router re-ticking until its due
// cycle, else an otherwise-idle router sleeps through it and the event
// kernel diverges from the scan kernel.
//
// Each test locks a ReferenceRouter network (which always runs the scan
// kernel) and an optimized-Router network (which always runs the event
// kernel) built from the same config into cycle-by-cycle state_digest()
// comparison.
// Low injection rates are deliberate: wake bugs only manifest when
// routers actually go idle between events — a saturated mesh re-ticks
// every cycle and hides them (the PR 3 drop-window and PR 5
// staged-replay bugs both survived saturated testing and lived exactly
// in this seam).
//
// Delayed-action classes covered:
//   1. HBH NACK send_at / drop windows      (link errors, 3- and 4-stage)
//   2. Retransmission-barrel retire deadlines (NACK window expiry)
//   3. Probe timeouts                       (deadlock recovery; an
//      orphaned probe needs no wake at all)
//   4. Drain-then-kill completion           (mid-run storm kills)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/network.hpp"

namespace ftnoc {
namespace {

// Steps both kernels in lock-step and fails on the first digest mismatch.
// A mismatch cycle is the wake bug's signature: the event kernel skipped
// a router step the scan kernel performed (an extra step of an idle
// router changes nothing).
// Returns the event network's stats so each test can additionally assert
// its delayed-action class actually fired (a scenario that arms no
// windows proves nothing).
const StatsCollector& expect_lockstep(Network& scan, Network& event,
                                      Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) {
    scan.step();
    event.step();
    EXPECT_EQ(scan.state_digest(), event.state_digest())
        << "event kernel diverged from scan kernel at cycle "
        << event.now() << " — a delayed action fired without a scheduled "
        << "self-tick (wake-up bug)";
    if (scan.state_digest() != event.state_digest()) break;
  }
  return event.stats();
}

struct KernelPair {
  KernelPair(SimConfig cfg) : scan_cfg(cfg), event_cfg(cfg) {
    scan_cfg.use_reference_router = true;
    scan.emplace(scan_cfg);
    event.emplace(event_cfg);
    // Most fault/deadlock counters only bump inside the measurement
    // window (the Simulator opens it at the warm-up boundary); open it
    // from cycle 0 so the scenario-has-teeth assertions below see them.
    scan->stats().begin_measurement(0);
    event->stats().begin_measurement(0);
  }
  const StatsCollector& run(Cycle cycles) {
    return expect_lockstep(*scan, *event, cycles);
  }
  SimConfig scan_cfg;
  SimConfig event_cfg;
  std::optional<Network> scan;
  std::optional<Network> event;
};

// Sparse traffic so routers idle between packets; every delayed action
// then has to wake its router itself rather than riding a traffic tick.
SimConfig sparse_base() {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 2;
  cfg.vc_buffer_depth = 4;
  cfg.packet_length = 4;
  cfg.injection_rate = 0.02;
  cfg.warmup_messages = 0;
  cfg.total_messages = 50;
  cfg.max_cycles = 10'000;
  cfg.seed = 7;
  return cfg;
}

// Class 1+2: HBH protection with real link errors. Corrupted flits arm
// NACK send_at delays and receiver drop windows; every transmission arms
// a retransmission-barrel retire deadline (sent_at + nack_window + 1)
// that must fire on an otherwise-idle sender.
TEST(EventWakeup, HbhNackAndDropWindows) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.faults.link_error_rate = 0.01;
  cfg.faults.multi_bit_fraction = 0.3;  // Real NACK traffic, not just FEC.
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(3000).nacks_sent(), 0u)
      << "scenario armed no NACK/drop windows";
}

// Same classes through the 4-stage pipeline: the dedicated ST stage and
// deeper barrels shift every window by a cycle, which is where the PR 3
// drop-window bug lived.
TEST(EventWakeup, HbhWindowsFourStage) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.pipeline_stages = 4;
  cfg.retransmission_depth = 4;
  cfg.faults.link_error_rate = 0.01;
  cfg.faults.multi_bit_fraction = 0.3;
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(3000).nacks_sent(), 0u)
      << "scenario armed no NACK/drop windows";
}

// Class 3: probe timeouts. Adaptive routing with recovery enabled and a
// low probe threshold sends real probes; a probe's timeout only matters to
// a router with a blocked VC, which re-ticks every cycle anyway.
TEST(EventWakeup, ProbeTimeoutGc) {
  SimConfig cfg = sparse_base();
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.num_vcs = 2;
  cfg.injection_rate = 0.35;  // Enough contention to arm probes.
  cfg.total_messages = 120;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 16;
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(4000).probes_sent(), 0u) << "scenario sent no probes";
}

// Class 3, idle half: a probe orphaned by exit_recovery() costs an idle
// network no wake. A cyclic burst deadlocks, recovery breaks it and
// resets the origin's agent with its probe still in flight; once the
// burst drains, nothing is left to do. The only record of that probe is
// the agent's, cleared at the reset, so no router sleeps past a due
// action and none is woken to find nothing: the event kernel's router
// steps do not depend on probe_timeout. (When the origin kept its own
// copy of the probe's route, a GC timer at sent_at + probe_timeout + 1
// woke it for 531 steps at 256 and 534 at 1000.)
TEST(EventWakeup, ProbeGcAfterTrafficDrains) {
  std::optional<std::uint64_t> steps;
  for (const Cycle timeout : {Cycle{256}, Cycle{1000}}) {
    SCOPED_TRACE("probe_timeout=" + std::to_string(timeout));
    SimConfig cfg = sparse_base();
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    cfg.num_vcs = 1;  // Single-VC adaptive: the cyclic burst deadlocks.
    cfg.injection_rate = 0.0;  // Manual burst only.
    cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
    cfg.deadlock.enable_recovery = true;
    cfg.deadlock.probe_threshold = 24;
    cfg.deadlock.probe_backoff = 16;
    cfg.deadlock.probe_timeout = timeout;
    KernelPair nets(cfg);
    // Diagonal cyclic streams (the IntegrationDeadlock pattern): a real
    // deadlock forms, recovery breaks it, and exit_recovery() orphans the
    // in-flight probe.
    for (int i = 0; i < 8; ++i) {
      for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{0, 3},
                                     {1, 2}, {3, 0}, {2, 1}}) {
        nets.scan->inject_packet(src, dst, 4);
        nets.event->inject_packet(src, dst, 4);
      }
    }
    const auto& st = nets.run(2500 + timeout);
    EXPECT_GT(st.probes_sent(), 0u) << "burst armed no probes";
    EXPECT_GT(st.recoveries_entered(), 0u) << "burst never deadlocked";
    EXPECT_EQ(nets.event->state_digest(), nets.scan->state_digest());
    EXPECT_LT(nets.event->router_steps(), 531u);
    if (steps) {
      EXPECT_EQ(nets.event->router_steps(), *steps);
    }
    steps = nets.event->router_steps();
  }
}

// Class 4: drain-then-kill. Links die mid-run on a config timeline —
// the event kernel must fire each kill at the same cycle as the scan
// kernel, schedule both endpoints' drains, and keep stepping them until
// the drains complete; the route-epoch re-home of parked kVaWait heads
// must also land on the same cycle in both kernels. adaptive_faults is on
// so kills whose drains swallow a head's whole minimal set exercise the
// non-minimal escape tier in lock-step too.
TEST(EventWakeup, StormKillsMidRunLockstep) {
  SimConfig cfg = sparse_base();
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.adaptive_faults = true;
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 32;
  cfg.deadlock.probe_backoff = 17;
  cfg.injection_rate = 0.15;
  cfg.total_messages = 200;
  cfg.storm_kills.push_back({200, 5, Direction::kEast});
  cfg.storm_kills.push_back({500, 9, Direction::kEast});
  cfg.storm_kills.push_back({800, 6, Direction::kNorth});
  KernelPair nets(cfg);
  EXPECT_EQ(nets.run(4000).links_storm_killed(), 3u)
      << "storm timeline never fully fired";
}

// Production-fabric scale: a 16x16 torus (256 routers, wrap-around
// channels) with link errors, a dead link and a router left with one live
// link. Every other lockstep test runs a 4x4 (or 2x2) mesh, where the
// event kernel's wake graph is dense and near-saturated almost by
// accident; at 256 routers under sparse traffic most of the fabric is
// genuinely idle most cycles, so a wake rule that under-schedules (or a
// wrap-channel wire the wake graph forgot) diverges here and nowhere
// else.
TEST(EventWakeup, LargeTorusFaultedLockstep) {
  SimConfig cfg = sparse_base();
  cfg.mesh_width = 16;
  cfg.mesh_height = 16;
  cfg.torus = true;
  cfg.protection = LinkProtection::kHbh;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.injection_rate = 0.01;  // ~2.5 flits/cycle over 256 routers: idle-heavy.
  cfg.total_messages = 150;
  cfg.faults.link_error_rate = 0.005;
  cfg.faults.multi_bit_fraction = 0.3;  // Arms NACK windows at scale.
  cfg.dead_links.push_back({17, Direction::kEast});
  for (const Direction d :
       {Direction::kNorth, Direction::kEast, Direction::kSouth}) {
    cfg.dead_links.push_back({200, d});
  }
  KernelPair nets(cfg);
  EXPECT_GT(nets.run(2000).nacks_sent(), 0u)
      << "scenario armed no NACK/drop windows at scale";
}

// Workload replay on a faulted mesh with per-link accounting on: trace
// release is pure timer-driven injection (no Bernoulli ticks to ride), so
// every burst's release cycle must wake its source PE in the event kernel
// by itself — and the link_stats accumulators read architectural state
// after the wire ticks, so they must come out byte-identical across
// kernels too. One sender's router keeps only its West link, so its
// bursts leave through a single port and detour in the same lockstep.
TEST(EventWakeup, WorkloadReplayFaultedLockstep) {
  SimConfig cfg = sparse_base();
  cfg.injection_rate = 0.0;  // Pure workload-driven.
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.adaptive_faults = true;
  cfg.link_stats = true;
  cfg.dead_links.push_back({5, Direction::kEast});
  for (const Direction d :
       {Direction::kNorth, Direction::kEast, Direction::kSouth}) {
    cfg.dead_links.push_back({10, d});
  }
  cfg.workload_text =
      "packet_flits 4\n"
      "many_to_one sink start=0 dest=0 flits=8 count=2 period=400 "
      "stagger=13\n"
      "transfer echo start=900 src=0 dest=15 flits=12\n";
  KernelPair nets(cfg);
  const auto& st = nets.run(3000);
  EXPECT_GT(st.messages_ejected(), 0u) << "workload delivered nothing";
  // Every released packet, node 10's included, is delivered.
  EXPECT_EQ(st.messages_ejected(), st.packets_created());
  EXPECT_EQ(st.unreachable_drops(), 0u);
  EXPECT_EQ(nets.scan->link_fwd_counts(), nets.event->link_fwd_counts());
  EXPECT_EQ(nets.scan->link_stall_counts(), nets.event->link_stall_counts());
}

// A workload replay with storm kills mid-run: drains, re-homes, escape
// detours and recovery absorption all move flits in and out of buffers.
SimConfig storm_workload() {
  SimConfig cfg = sparse_base();
  cfg.injection_rate = 0.0;  // Pure workload-driven.
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.adaptive_faults = true;
  cfg.num_vcs = 1;  // Single-VC adaptive: the replay really deadlocks.
  cfg.deadlock.enable_recovery = true;
  cfg.deadlock.probe_threshold = 16;
  cfg.deadlock.probe_backoff = 8;
  cfg.storm_kills.push_back({300, 5, Direction::kEast});
  cfg.storm_kills.push_back({700, 9, Direction::kEast});
  cfg.storm_kills.push_back({1100, 6, Direction::kSouth});
  cfg.workload_text =
      "packet_flits 4\n"
      "many_to_one sink start=0 dest=0 flits=16 count=3 period=400 "
      "stagger=5\n"
      "all_to_all background start=0 flits=8 stagger=3\n";
  return cfg;
}

// Per-link counters across router implementations. The optimized Router
// on the event kernel answers the stall query from per-port running
// counters; the ReferenceRouter on the scan kernel sums its VC buffers.
// The storm replay must keep the two in lock-step and give identical link
// vectors; the invariant monitor recounts every port's counter each cycle.
TEST(EventWakeup, LinkStatsRouterMatchesReferenceUnderStorm) {
  SimConfig cfg = storm_workload();
  cfg.link_stats = true;
  cfg.check_invariants = true;  // Recounts each port's occupancy counter.
  SimConfig ref_cfg = cfg;
  ref_cfg.use_reference_router = true;
  Network opt(cfg);
  Network ref(ref_cfg);
  opt.stats().begin_measurement(0);
  ref.stats().begin_measurement(0);
  for (Cycle c = 0; c < 4000; ++c) {
    opt.step();
    ref.step();
    ASSERT_EQ(opt.state_digest(), ref.state_digest())
        << "Router diverged from ReferenceRouter at cycle " << opt.now();
  }
  EXPECT_EQ(opt.stats().links_storm_killed(), 3u)
      << "storm timeline never fully fired";
  EXPECT_GT(opt.stats().flits_absorbed(), 0u)
      << "no deadlock recovery absorbed a flit";
  EXPECT_EQ(opt.link_fwd_counts(), ref.link_fwd_counts());
  EXPECT_EQ(opt.link_stall_counts(), ref.link_stall_counts());
  std::uint64_t stalls = 0;
  for (const std::uint64_t s : opt.link_stall_counts()) stalls += s;
  EXPECT_GT(stalls, 0u) << "the replay never backed a link up";
}

// step() samples buffer utilization from running occupancy totals that
// only router steps refresh (both kernels). After every cycle they must
// equal a full recount of every router, for the optimized Router under the
// event kernel and the ReferenceRouter under the scan kernel alike.
TEST(EventWakeup, SampledOccupancyMatchesFullScanEveryCycle) {
  for (const int variant : {0, 1}) {
    SimConfig cfg = storm_workload();
    cfg.use_reference_router = variant == 1;
    Network net(cfg);
    double max_tx = 0.0;
    double max_rtx = 0.0;
    for (Cycle c = 0; c < 4000; ++c) {
      net.step();
      ASSERT_EQ(net.sampled_tx_fraction(), net.tx_buffer_fraction())
          << "variant " << variant << " cycle " << net.now();
      ASSERT_EQ(net.sampled_rtx_fraction(), net.rtx_buffer_fraction())
          << "variant " << variant << " cycle " << net.now();
      max_tx = std::max(max_tx, net.tx_buffer_fraction());
      max_rtx = std::max(max_rtx, net.rtx_buffer_fraction());
    }
    EXPECT_EQ(net.stats().links_storm_killed(), 3u) << "variant " << variant;
    EXPECT_GT(max_tx, 0.0) << "variant " << variant;
    EXPECT_GT(max_rtx, 0.0) << "variant " << variant;
  }
}

// Statically faulted topology: dead links, three of them around one
// router, reshape the wake graph (some wires never carry a flit); the
// event kernel must still cover every router's delayed actions.
TEST(EventWakeup, FaultedTopologyLockstep) {
  SimConfig cfg = sparse_base();
  cfg.protection = LinkProtection::kHbh;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.faults.link_error_rate = 0.005;
  cfg.dead_links.push_back({5, Direction::kEast});
  for (const Direction d :
       {Direction::kNorth, Direction::kEast, Direction::kSouth}) {
    cfg.dead_links.push_back({10, d});
  }
  KernelPair nets(cfg);
  nets.run(3000);
}

// The deadlock-recovery path under mid-run kills at 8x8: one hotspot
// burst toward node 36 plus an all-to-all exchange, replayed to drain
// while six East links die (the k=6 point of the storm-drain benchmark).
// Probes, confirmed deadlocks, recovery absorption and escape detours all
// fire, so every router phase walks its per-state VC masks through every
// state. The ReferenceRouter (scan) and the optimized Router (event) must
// agree every cycle, with the invariant monitor re-deriving each mask.
TEST(EventWakeup, StormDrainRecoveryLockstep) {
  SimConfig cfg;
  std::vector<std::string> ov = {
      "mesh_width=8",      "mesh_height=8",       "injection_rate=0",
      "link_stats=1",      "routing=adaptive",    "adaptive_faults=1",
      "deadlock_recovery=1", "probe_threshold=32", "probe_backoff=17",
      "warmup_messages=0", "check_invariants=1"};
  for (int j = 0; j < 6; ++j) {
    ov.push_back("storm_kill=" + std::to_string(250 + 250 * j) + ":" +
                 std::to_string((j % 8) * 8 + 1 + j % 6) + ":E");
  }
  ASSERT_FALSE(apply_overrides(cfg, ov).has_value());
  cfg.workload_text =
      "packet_flits 4\n"
      "many_to_one memstream start=0 dest=36 flits=16 count=1 period=2000 "
      "stagger=7\n"
      "all_to_all exchange start=300 flits=4 stagger=3\n";
  ASSERT_FALSE(cfg.validate().has_value());
  KernelPair nets(cfg);
  // Every router's digest is compared every cycle. The full network
  // digest also hashes each PE's source queue, thousands of flits at the
  // exchange's peak, so it is compared every 64 cycles and at the end.
  const auto routers_digest = [](const Network& net) {
    std::vector<std::uint64_t> d;
    for (NodeId n = 0; n < 64; ++n) {
      d.push_back(net.router_base(n).state_digest());
    }
    return d;
  };
  for (Cycle c = 1; c <= 3000; ++c) {
    nets.scan->step();
    nets.event->step();
    ASSERT_EQ(routers_digest(*nets.scan), routers_digest(*nets.event))
        << "event kernel diverged from scan kernel at cycle "
        << nets.event->now();
    if (c % 64 == 0 || c == 3000) {
      ASSERT_EQ(nets.scan->state_digest(), nets.event->state_digest())
          << "cycle " << c;
    }
  }
  const StatsCollector& st = nets.event->stats();
  EXPECT_GT(st.probes_sent(), 0u);
  EXPECT_GT(st.deadlocks_confirmed(), 0u);
  EXPECT_GT(st.flits_absorbed(), 0u);
  EXPECT_EQ(st.links_storm_killed(), 6u);
  EXPECT_EQ(st.messages_ejected(), st.packets_created())
      << "the replay did not drain";
  EXPECT_EQ(nets.scan->link_fwd_counts(), nets.event->link_fwd_counts());
  EXPECT_EQ(nets.scan->link_stall_counts(), nets.event->link_stall_counts());
}

}  // namespace
}  // namespace ftnoc
