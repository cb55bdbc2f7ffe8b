// Permanent-fault model (DESIGN.md §4.9): fault-aware routing against an
// independent BFS oracle on random faulted meshes, partition rejection,
// the storm-kill partition veto and graceful degradation, plus the
// unmeasured-replica regression that shipped with the fault model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/topology.hpp"
#include "noc/routing.hpp"
#include "noc/simulator.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/presets.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc {
namespace {

// Test-local BFS over live links only — deliberately independent of
// Topology's own distance table so the two can cross-check each other.
std::vector<int> oracle_distances(const Topology& topo, NodeId dest) {
  const int n = topo.num_nodes();
  std::vector<int> dist(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> frontier{dest};
  dist[dest] = 0;
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (const NodeId cur : frontier) {
      for (int d = 0; d < 4; ++d) {
        const auto dir = static_cast<Direction>(d);
        if (!topo.link_alive(cur, dir)) continue;
        const NodeId nb = *topo.neighbor(cur, dir);
        if (dist[nb] >= 0) continue;
        dist[nb] = dist[cur] + 1;
        next.push_back(nb);
      }
    }
    frontier = std::move(next);
  }
  return dist;
}

TEST(FaultModelProperty, RouteStrictlyDescendsOnRandomFaultedMeshes) {
  Rng rng(20260805);
  for (int trial = 0; trial < 25; ++trial) {
    Topology topo(8, 8, false);
    // Plant up to 4 random dead links, rejecting any draw that would
    // partition the mesh (mirroring the storm-kill veto), so every pair
    // stays connected and the non-empty-mask property must hold.
    const int want = static_cast<int>(rng.next_below(5));
    int placed = 0;
    for (int att = 0; att < 200 && placed < want; ++att) {
      const NodeId n = static_cast<NodeId>(rng.next_below(64));
      const auto d = static_cast<Direction>(rng.next_below(4));
      if (!topo.link_alive(n, d)) continue;
      if (topo.would_partition(n, d)) continue;
      topo.fail_link(n, d);
      ++placed;
    }
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      const std::vector<int> oracle = oracle_distances(topo, dest);
      for (NodeId cur = 0; cur < topo.num_nodes(); ++cur) {
        // Cross-check the table itself first.
        const std::uint16_t fd = topo.fault_distance(cur, dest);
        if (oracle[cur] < 0) {
          EXPECT_EQ(fd, Topology::kUnreachable);
        } else {
          EXPECT_EQ(static_cast<int>(fd), oracle[cur]);
        }
        if (cur == dest) continue;

        // The exact set of strictly-descending live ports.
        PortMask descending = 0;
        for (int d = 0; d < 4; ++d) {
          const auto dir = static_cast<Direction>(d);
          if (!topo.link_alive(cur, dir)) continue;
          const NodeId nb = *topo.neighbor(cur, dir);
          if (oracle[nb] >= 0 && oracle[nb] == oracle[cur] - 1) {
            descending |= static_cast<PortMask>(1u << d);
          }
        }

        const PortMask ad =
            route(topo, RoutingAlgorithm::kMinimalAdaptive, cur, dest);
        EXPECT_EQ(ad, descending)
            << "adaptive mask at " << cur << " -> " << dest;
        ASSERT_NE(ad, 0) << "connected pair got an empty mask";

        const PortMask xy = route(topo, RoutingAlgorithm::kXY, cur, dest);
        // XY offers a single deterministic port that strictly descends.
        EXPECT_EQ(xy & (xy - 1), 0) << "XY must offer exactly one port";
        EXPECT_NE(xy & descending, 0) << "XY port must strictly descend";
        if (topo.has_faults()) {
          // Fault-aware mode pins the choice to the lowest-numbered
          // descending port (fault-free XY orders X before Y instead).
          EXPECT_EQ(xy, descending & static_cast<PortMask>(-descending));
        }
      }
    }
  }
}

TEST(FaultModelProperty, EscapePortsMatchBfsOracleOnRandomFaultedMeshes) {
  // The non-minimal escape tier (DESIGN.md §4.12) against the same
  // independent oracle: on meshes faulted heavily enough to disconnect
  // some pairs, fault_escape_ports() must be non-empty exactly for the
  // reachable pairs, and must offer exactly the live neighbours of
  // minimum remaining distance — the detour that keeps progress bounded.
  Rng rng(20260808);
  for (int trial = 0; trial < 10; ++trial) {
    Topology topo(8, 8, false);
    // No partition veto here, deliberately: unreachable pairs are the
    // interesting half of the contract (escape must come back empty so
    // phase_rt can drop the packet as unreachable instead of looping).
    const int want = 2 + static_cast<int>(rng.next_below(10));
    for (int att = 0; att < 200 && topo.route_epoch() <
                                       static_cast<std::uint32_t>(want);
         ++att) {
      const NodeId n = static_cast<NodeId>(rng.next_below(64));
      const auto d = static_cast<Direction>(rng.next_below(4));
      if (!topo.link_alive(n, d)) continue;
      topo.fail_link(n, d);
    }
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      const std::vector<int> oracle = oracle_distances(topo, dest);
      for (NodeId cur = 0; cur < topo.num_nodes(); ++cur) {
        if (cur == dest) continue;
        // The exact set of live ports whose neighbour reaches dest at the
        // minimum distance over all such neighbours.
        int best = -1;
        for (int d = 0; d < 4; ++d) {
          const auto dir = static_cast<Direction>(d);
          if (!topo.link_alive(cur, dir)) continue;
          const int nd = oracle[*topo.neighbor(cur, dir)];
          if (nd < 0) continue;
          if (best < 0 || nd < best) best = nd;
        }
        PortMask expect = 0;
        for (int d = 0; d < 4; ++d) {
          const auto dir = static_cast<Direction>(d);
          if (!topo.link_alive(cur, dir)) continue;
          if (oracle[*topo.neighbor(cur, dir)] == best && best >= 0) {
            expect |= static_cast<PortMask>(1u << d);
          }
        }
        const PortMask esc = fault_escape_ports(topo, cur, dest);
        EXPECT_EQ(esc, expect) << "escape mask at " << cur << " -> " << dest;
        EXPECT_EQ(esc != 0, oracle[cur] >= 0)
            << "escape mask must be non-empty iff " << cur << " can still "
            << "reach " << dest;
        if (esc == 0) continue;
        // Termination: one escape hop, then the strictly-descending
        // adaptive walk, reaches dest in exactly best more hops — the
        // misroute detour cannot loop.
        NodeId at = *topo.neighbor(
            cur, static_cast<Direction>(std::countr_zero(esc)));
        for (int left = best; left > 0; --left) {
          const PortMask ad =
              route(topo, RoutingAlgorithm::kMinimalAdaptive, at, dest);
          ASSERT_NE(ad, 0) << "descending walk stuck at " << at;
          at = *topo.neighbor(
              at, static_cast<Direction>(std::countr_zero(ad)));
        }
        EXPECT_EQ(at, dest);
      }
    }
  }
}

// Hop count over every physical link (Manhattan, or the shorter way
// around each torus ring), computed independently of Topology.
int closed_form_distance(const Topology& topo, NodeId a, NodeId b) {
  const Coord ca = topo.coord_of(a);
  const Coord cb = topo.coord_of(b);
  int dx = std::abs(ca.x - cb.x);
  int dy = std::abs(ca.y - cb.y);
  if (topo.torus()) {
    dx = std::min(dx, topo.width() - dx);
    dy = std::min(dy, topo.height() - dy);
  }
  return dx + dy;
}

// Checks fault_distance() against the oracle for every pair, then checks
// that the topology stores a row for exactly the destinations whose
// oracle row differs from the closed form somewhere; returns how many
// those are.
int expect_exact_rows(const Topology& topo, const std::string& where) {
  int detoured = 0;
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    const std::vector<int> oracle = oracle_distances(topo, dest);
    int wrong = 0;
    bool differs = false;
    for (NodeId cur = 0; cur < topo.num_nodes(); ++cur) {
      const int want =
          oracle[cur] < 0 ? Topology::kUnreachable : oracle[cur];
      if (static_cast<int>(topo.fault_distance(cur, dest)) != want) ++wrong;
      if (want != closed_form_distance(topo, cur, dest)) differs = true;
    }
    EXPECT_EQ(wrong, 0) << where << ": wrong distances toward " << dest;
    if (differs) ++detoured;
  }
  if (topo.has_faults()) {
    EXPECT_EQ(topo.stored_rows(), static_cast<std::size_t>(detoured))
        << where << ": stored rows must be exactly the detoured ones";
  }
  return detoured;
}

TEST(Topology, RouteEpochBumpsAndLazyRowsStayExact) {
  // The per-destination distance rows are rebuilt lazily: a fail_link()
  // only bumps the route epoch, and each destination re-runs its BFS on
  // first use afterwards. Rows primed before a kill must not serve stale
  // distances after it, and a row is stored only where a fault detours
  // its destination; every other one answers with the closed form.
  Topology topo(4, 4, false);
  const std::uint32_t e0 = topo.route_epoch();
  // Prime every row at full health, so staleness would actually show.
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    EXPECT_EQ(static_cast<int>(topo.fault_distance(0, dest)),
              oracle_distances(topo, dest)[0]);
  }
  topo.fail_link(5, Direction::kEast);
  EXPECT_EQ(topo.route_epoch(), e0 + 1);
  topo.fail_link(9, Direction::kNorth);
  EXPECT_EQ(topo.route_epoch(), e0 + 2);
  expect_exact_rows(topo, "4x4 after mid-run kills");

  // The fabric_32x32 benchmark's stagger: East cut at column 1 + j % 30,
  // row j. A quarter of the destinations are detoured.
  Topology fabric(32, 32, false);
  for (int j = 0; j < 8; ++j) {
    fabric.fail_link(static_cast<NodeId>(j * 32 + 1 + j % 30),
                     Direction::kEast);
  }
  EXPECT_EQ(expect_exact_rows(fabric, "32x32 stagger"), 256);
  EXPECT_EQ(fabric.stored_rows(), 256u);

  // A 16x16 torus: wrap-around rings give the closed form its min() terms,
  // and one of the kills is a wrap channel.
  Topology torus(16, 16, true);
  torus.fail_link(3 * 16 + 15, Direction::kEast);  // Wraps to column 0.
  torus.fail_link(5 * 16 + 7, Direction::kSouth);
  torus.fail_link(9 * 16 + 2, Direction::kEast);
  torus.fail_link(0, Direction::kNorth);  // Wraps to row 15.
  EXPECT_GT(expect_exact_rows(torus, "16x16 torus"), 0);

  // A storm sequence (the storm_drain_8x8 kill sites plus two more), each
  // kill landing after every row was primed: rebuilt rows stay exact and
  // a detoured destination stays stored.
  Topology storm(8, 8, false);
  expect_exact_rows(storm, "8x8 before the storm");
  std::size_t stored = 0;
  for (int j = 0; j < 8; ++j) {
    storm.fail_link(static_cast<NodeId>((j % 8) * 8 + 1 + j % 6),
                    Direction::kEast);
    expect_exact_rows(storm, "8x8 after storm kill " + std::to_string(j));
    EXPECT_GE(storm.stored_rows(), stored) << "a stored row was freed";
    stored = storm.stored_rows();
  }
  EXPECT_GT(stored, 0u);
}

TEST(FaultEscalation, JointlyPartitioningRequestsTrimToSafePrefix) {
  // Regression for the batched-veto bug (PR 8): two same-cycle storm
  // kills that are each safe alone but jointly isolate a node must be
  // trimmed to a safe prefix, not both granted. On a 2x2 mesh, node 0's
  // East and South links each leave the mesh connected — killing both
  // cuts node 0 off entirely.
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.warmup_messages = 0;
  cfg.total_messages = 200;
  cfg.max_cycles = 100'000;
  cfg.check_invariants = true;
  cfg.storm_kills.push_back({5, 0, Direction::kEast});
  cfg.storm_kills.push_back({5, 0, Direction::kSouth});
  // Under both kernels: the ReferenceRouter network scans, the optimized
  // one runs the event kernel.
  for (const bool reference : {true, false}) {
    cfg.use_reference_router = reference;
    Simulator sim(cfg);
    const SimResults r = sim.run();
    EXPECT_EQ(r.links_storm_killed, 1u)
        << "exactly one of the two jointly-partitioning kills may land "
        << "(reference=" << reference << ")";
    const Topology& topo = sim.network().topology();
    EXPECT_FALSE(topo.link_alive(0, Direction::kEast))
        << "the first kill of the batch is the one accepted";
    EXPECT_TRUE(topo.link_alive(0, Direction::kSouth));
    EXPECT_NE(topo.fault_distance(0, 3), Topology::kUnreachable)
        << "the veto let the batch partition the mesh";
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.messages_ejected, 200u);
    EXPECT_EQ(r.unreachable_drops, 0u);
  }
}

TEST(FaultModelProperty, ValidateRejectsPartitioningFaultSets) {
  // Cutting the East link in every row of column x=1 splits a 4x4 mesh
  // into columns {0,1} and {2,3}.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  for (const NodeId n : {1, 5, 9, 13}) {
    cfg.dead_links.push_back({n, Direction::kEast});
  }
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("partition"), std::string::npos);

  // Dropping any one cut reconnects the halves.
  cfg.dead_links.pop_back();
  EXPECT_EQ(cfg.validate(), std::nullopt);

  // Four dead links around interior node 5 cut it off as an island.
  SimConfig island;
  island.mesh_width = 4;
  island.mesh_height = 4;
  for (const Direction d : {Direction::kNorth, Direction::kEast,
                            Direction::kSouth, Direction::kWest}) {
    island.dead_links.push_back({5, d});
  }
  const auto island_err = island.validate();
  ASSERT_TRUE(island_err.has_value());
  EXPECT_NE(island_err->find("partition"), std::string::npos);
  // Three of the four leave it reachable.
  island.dead_links.pop_back();
  EXPECT_EQ(island.validate(), std::nullopt);
}

TEST(FaultDegradationPreset, GridIsValidAtPaperAndSmokeScales) {
  for (const int mesh : {4, 8}) {
    SimConfig base;
    base.mesh_width = mesh;
    base.mesh_height = mesh;
    const auto pts = sweep::fault_degradation_points(base);
    ASSERT_EQ(pts.size(), 5u) << mesh;
    for (std::size_t k = 0; k < pts.size(); ++k) {
      EXPECT_EQ(pts[k].config.dead_links.size(), k);
      EXPECT_EQ(pts[k].config.validate(), std::nullopt)
          << "k=" << k << " mesh=" << mesh;
      EXPECT_EQ(pts[k].config.has_permanent_faults(), k > 0);
    }
  }
}

TEST(FaultDegradationPreset, TinySweepDeliversEverythingAndGatesColumns) {
  // Run the whole degradation grid at smoke scale: every point must
  // complete with zero unreachable drops (connected pairs never lose a
  // packet), and the permanent-fault JSONL columns must appear exactly
  // on the faulted points — fault-free lines keep the legacy key set.
  SimConfig base;
  base.mesh_width = 4;
  base.mesh_height = 4;
  base.num_vcs = 2;
  base.warmup_messages = 100;
  base.total_messages = 600;
  base.max_cycles = 200'000;
  const auto pts = sweep::fault_degradation_points(base);
  ASSERT_EQ(pts.size(), 5u);
  sweep::SweepOptions opts;
  opts.num_threads = 1;
  const auto results = sweep::SweepEngine(opts).run(pts);
  for (const auto& pr : results) {
    EXPECT_TRUE(pr.results.completed) << pr.label;
    EXPECT_EQ(pr.results.unreachable_drops, 0u) << pr.label;
    const std::string line = sweep::to_jsonl(pr);
    const bool faulted = pr.config.has_permanent_faults();
    EXPECT_EQ(line.find("\"dead_links\"") != std::string::npos, faulted);
    EXPECT_EQ(line.find("\"packets_rerouted\"") != std::string::npos, faulted)
        << line;
  }
}

TEST(FaultStormPreset, GridIsValidAtPaperAndSmokeScales) {
  for (const int mesh : {4, 8}) {
    SimConfig base;
    base.mesh_width = mesh;
    base.mesh_height = mesh;
    const auto pts = sweep::fault_storm_points(base);
    ASSERT_EQ(pts.size(), 5u) << mesh;
    for (std::size_t k = 0; k < pts.size(); ++k) {
      EXPECT_EQ(pts[k].config.storm_kills.size(), k);
      EXPECT_EQ(pts[k].config.validate(), std::nullopt)
          << "k=" << k << " mesh=" << mesh;
      EXPECT_EQ(pts[k].config.has_permanent_faults(), k > 0);
      EXPECT_TRUE(pts[k].config.adaptive_faults);
    }
  }
}

TEST(FaultStormPreset, TinySweepNeverDropsReachableAndGatesColumns) {
  // Run the whole storm grid at smoke scale. The kill schedule never
  // partitions (and the runtime veto backstops it), so every destination
  // stays reachable: the degradation curve must be pure latency/detour —
  // unreachable_drops == 0 on every point — with every scheduled kill
  // actually landing. The storm JSONL columns appear exactly on the
  // points that schedule kills. The message budget is sized so every run
  // outlives the last kill at cycle 1000 (600 messages drain in ~500
  // cycles and would leave the tail of the timeline unfired).
  SimConfig base;
  base.mesh_width = 4;
  base.mesh_height = 4;
  base.num_vcs = 2;
  base.warmup_messages = 400;
  base.total_messages = 4'000;
  base.max_cycles = 200'000;
  const auto pts = sweep::fault_storm_points(base);
  ASSERT_EQ(pts.size(), 5u);
  sweep::SweepOptions opts;
  opts.num_threads = 1;
  const auto results = sweep::SweepEngine(opts).run(pts);
  for (std::size_t k = 0; k < results.size(); ++k) {
    const auto& pr = results[k];
    EXPECT_TRUE(pr.results.completed) << pr.label;
    EXPECT_EQ(pr.results.unreachable_drops, 0u) << pr.label;
    EXPECT_EQ(pr.results.links_storm_killed, k)
        << pr.label << ": a scheduled kill was vetoed or never fired";
    const std::string line = sweep::to_jsonl(pr);
    EXPECT_EQ(line.find("\"storm_kills\"") != std::string::npos, k > 0)
        << line;
    EXPECT_EQ(line.find("\"links_storm_killed\"") != std::string::npos,
              k > 0)
        << line;
    EXPECT_NE(line.find("\"adaptive_faults\":true"), std::string::npos)
        << line;
  }
}

TEST(HardFaults, ConnectedPairsNeverDropUnreachable) {
  // Two interior dead links that do not partition: every packet must
  // still arrive — degradation is latency and detours, never loss.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
  cfg.deadlock.enable_recovery = true;
  cfg.injection_rate = 0.1;
  cfg.warmup_messages = 200;
  cfg.total_messages = 2'000;
  cfg.max_cycles = 400'000;
  cfg.check_invariants = true;
  cfg.dead_links.push_back({5, Direction::kEast});
  cfg.dead_links.push_back({9, Direction::kNorth});
  const SimResults r = run_simulation(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.unreachable_drops, 0u);
  EXPECT_EQ(r.corrupted_delivered, 0u);
}

// --- Unmeasured-replica regression (the warm-up bug fix) --------------------

TEST(Simulator, NeverWarmedUpReplicaReportsWholeRunCountersOnly) {
  // The run hits max_cycles before the warm-up budget ejects: there is no
  // measurement window, so windowed metrics must stay zero instead of
  // being computed from a never-started window.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.05;
  cfg.warmup_messages = 1'000'000;
  cfg.total_messages = 2'000'000;
  cfg.max_cycles = 5'000;
  const SimResults r = run_simulation(cfg);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.measured_messages, 0u);
  EXPECT_EQ(r.avg_latency_cycles, 0.0);
  EXPECT_EQ(r.throughput_flits_node_cycle, 0.0);
  EXPECT_EQ(r.energy_per_message_nj, 0.0);
  // Whole-run accounting still flows.
  EXPECT_GT(r.packets_created, 0u);
  EXPECT_GT(r.messages_ejected, 0u);
}

}  // namespace
}  // namespace ftnoc
