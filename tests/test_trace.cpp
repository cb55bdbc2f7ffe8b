// Tests for trace-driven traffic: replaying TraceRecords through a network.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "noc/simulator.hpp"
#include "noc/trace.hpp"
#include "noc/traffic.hpp"

namespace ftnoc {
namespace {

// The records a network's live Bernoulli sources would inject over
// `cycles` cycles: TrafficSources constructed exactly as the Network
// builds its PEs (one fork of `root` per node, in node order).
std::vector<TraceRecord> live_source_trace(const Topology& topo, double rate,
                                           int len, Cycle cycles, Rng root) {
  std::vector<TrafficSource> sources;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    sources.emplace_back(topo, n, TrafficPattern::kUniformRandom, rate, len,
                         root.fork());
  }
  std::vector<TraceRecord> records;
  PacketId pid = 0;
  for (Cycle c = 0; c < cycles; ++c) {
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      if (const auto flits = sources[n].maybe_generate(pid)) {
        records.push_back({c, n, flits->front().dest, len});
      }
    }
  }
  return records;
}

TEST(TraceReplay, DeliversEveryTracedPacket) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.0;  // Pure trace-driven.
  cfg.warmup_messages = 0;
  cfg.total_messages = 60;
  cfg.max_cycles = 50'000;
  Simulator sim(cfg);

  std::vector<TraceRecord> trace;
  for (int i = 0; i < 60; ++i) {
    trace.push_back({static_cast<Cycle>(i * 3),
                     static_cast<NodeId>(i % 16),
                     static_cast<NodeId>((i * 5 + 3) % 16), 4});
    if (trace.back().src == trace.back().dest) trace.back().dest ^= 1;
  }
  sim.network().load_trace(trace);

  std::map<NodeId, int> per_dest;
  sim.network().set_delivery_listener(
      [&](NodeId d, const Flit&, Cycle) { ++per_dest[d]; });
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
  int total = 0;
  for (const auto& [d, n] : per_dest) total += n;
  EXPECT_EQ(total, 60);
  EXPECT_EQ(r.corrupted_delivered, 0u);
}

TEST(TraceReplay, ReplayedSyntheticTraceMatchesLiveSourceStats) {
  // A trace drawn from Bernoulli sources at rate R, replayed on an
  // otherwise idle network, should land near the live sources' latency
  // (the injection paths differ slightly — trace packets queue at the PE
  // — so allow a modest band).
  SimConfig live;
  live.mesh_width = 4;
  live.mesh_height = 4;
  live.injection_rate = 0.1;
  live.warmup_messages = 300;
  live.total_messages = 3'000;
  live.max_cycles = 300'000;
  const SimResults rl = run_simulation(live);
  ASSERT_TRUE(rl.completed);

  SimConfig replay = live;
  replay.injection_rate = 0.0;
  Simulator sim(replay);
  sim.network().load_trace(live_source_trace(sim.network().topology(), 0.1,
                                             4, 140'000, Rng(42)));
  const SimResults rr = sim.run();
  ASSERT_TRUE(rr.completed);
  EXPECT_NEAR(rr.avg_latency_cycles, rl.avg_latency_cycles,
              rl.avg_latency_cycles * 0.15);
}

TEST(TraceReplay, TraceOnTopOfSyntheticTraffic) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.05;
  cfg.warmup_messages = 0;
  cfg.total_messages = 500;
  cfg.max_cycles = 100'000;
  Simulator sim(cfg);
  sim.network().load_trace({{10, 0, 15, 4}, {20, 15, 0, 4}});
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
}

TEST(TraceReplayDeath, RejectsPastCycles) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 1;
  Simulator sim(cfg);
  for (int i = 0; i < 10; ++i) sim.network().step();
  EXPECT_DEATH(sim.network().load_trace({{0, 0, 1, 4}}), "FTNOC_CHECK");
}

}  // namespace
}  // namespace ftnoc
