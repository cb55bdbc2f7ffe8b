// Tests for trace-driven traffic: parsing, writing, synthesis and replay.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "noc/simulator.hpp"
#include "noc/trace.hpp"
#include "noc/traffic.hpp"

namespace ftnoc {
namespace {

TEST(TraceFormat, ParsesCanonicalText) {
  std::istringstream in(
      "# header comment\n"
      "0 0 3 4\n"
      "\n"
      "5 1 2 1   # inline comment\n"
      "5 2 1 4\n");
  std::string err;
  const auto recs = parse_trace(in, 16, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0], (TraceRecord{0, 0, 3, 4}));
  EXPECT_EQ(recs[1], (TraceRecord{5, 1, 2, 1}));
  EXPECT_EQ(recs[2], (TraceRecord{5, 2, 1, 4}));
}

TEST(TraceFormat, RejectsMalformedInput) {
  std::string err;
  {
    std::istringstream in("3 0 1\n");  // Missing field.
    parse_trace(in, 16, &err);
    EXPECT_FALSE(err.empty());
  }
  {
    std::istringstream in("3 0 1 4 junk\n");
    parse_trace(in, 16, &err);
    EXPECT_FALSE(err.empty());
  }
  {
    std::istringstream in("5 0 1 4\n3 0 1 4\n");  // Unsorted.
    parse_trace(in, 16, &err);
    EXPECT_FALSE(err.empty());
  }
  {
    std::istringstream in("3 7 7 4\n");  // src == dest.
    parse_trace(in, 16, &err);
    EXPECT_FALSE(err.empty());
  }
  {
    std::istringstream in("3 99 1 4\n");  // Out of range.
    parse_trace(in, 16, &err);
    EXPECT_FALSE(err.empty());
  }
  {
    std::istringstream in("3 0 1 0\n");  // Zero length.
    parse_trace(in, 16, &err);
    EXPECT_FALSE(err.empty());
  }
}

TEST(TraceFormat, LengthTruncationCannotSmuggleZero) {
  // Regression: a length of exactly 2^32 used to truncate to 0 through
  // the int cast *after* passing the `< 1` check, producing a zero-length
  // packet the replay path asserts on. The field is now parsed as an
  // exact u64 and range-checked before any narrowing.
  std::istringstream in("3 0 1 4294967296\n");
  std::string err;
  EXPECT_TRUE(parse_trace(in, 16, &err).empty());
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("packet length must be in [1, 256]"), std::string::npos)
      << err;
  EXPECT_NE(err.find("4294967296"), std::string::npos) << err;
}

TEST(TraceFormat, ZeroLengthErrorIsExplicit) {
  std::istringstream in("3 0 1 0\n");
  std::string err;
  EXPECT_TRUE(parse_trace(in, 16, &err).empty());
  EXPECT_NE(err.find("packet length must be in [1, 256]"), std::string::npos)
      << err;
}

TEST(TraceFormat, HugeInjectCycleIsAnErrorNotASkip) {
  // Regression: a cycle past 2^64 made `istream >> uint64` extraction
  // fail and the whole line was silently skipped as if it were blank —
  // the trace "parsed" minus one record. It must be a hard error that
  // names the offending value.
  std::istringstream in("0 0 1 4\n99999999999999999999 0 1 4\n");
  std::string err;
  EXPECT_TRUE(parse_trace(in, 16, &err).empty());
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("inject_cycle overflows 64 bits"), std::string::npos)
      << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(TraceFormat, TrailingJunkErrorNamesTheToken) {
  std::istringstream in("3 0 1 4 junk\n");
  std::string err;
  EXPECT_TRUE(parse_trace(in, 16, &err).empty());
  EXPECT_NE(err.find("trailing junk: junk"), std::string::npos) << err;
}

TEST(TraceFormat, NonMonotonicErrorNamesBothCycles) {
  // A sorted-order violation should tell the user exactly which pair of
  // records is out of order, not just that "something" was unsorted.
  std::istringstream in("5 0 1 4\n3 0 1 4\n");
  std::string err;
  parse_trace(in, 16, &err);
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("non-monotonic"), std::string::npos) << err;
  EXPECT_NE(err.find("cycle 3"), std::string::npos) << err;
  EXPECT_NE(err.find("cycle 5"), std::string::npos) << err;
}

TEST(TraceFormat, WriteThenParseRoundTrips) {
  std::vector<TraceRecord> recs = {
      {0, 0, 3, 4}, {2, 5, 9, 1}, {2, 9, 5, 8}, {100, 15, 0, 4}};
  std::ostringstream out;
  write_trace(out, recs);
  std::istringstream in(out.str());
  std::string err;
  EXPECT_EQ(parse_trace(in, 16, &err), recs);
  EXPECT_TRUE(err.empty());
}

TEST(TraceSynthesis, MatchesRequestedRate) {
  Topology topo(4, 4, false);
  const auto recs = synthesize_trace(topo, TrafficPattern::kUniformRandom,
                                     0.2, 4, 50'000, Rng(3));
  // Expected packets: cycles * nodes * rate/len = 50000*16*0.05 = 40000.
  EXPECT_NEAR(static_cast<double>(recs.size()), 40'000.0, 1'500.0);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    ASSERT_GE(recs[i].cycle, recs[i - 1].cycle);
    ASSERT_NE(recs[i].src, recs[i].dest);
  }
}

TEST(TraceSynthesis, MatchesLiveBernoulliSourcesExactly) {
  // Regression: synthesize_trace forked per-node RNG streams like the
  // live TrafficSources but never burned the per-flit payload draws
  // build_packet makes, so after the first generated packet every node's
  // stream drifted and the "same-seed" trace was a different schedule.
  // The pin: drive real TrafficSources (constructed exactly as the
  // Network builds its PEs — one fork per node, in node order) and
  // require record-for-record equality.
  Topology topo(4, 4, false);
  const double rate = 0.1;
  const int len = 4;
  const Cycle cycles = 5'000;

  Rng root(42);
  std::vector<TrafficSource> sources;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    sources.emplace_back(topo, n, TrafficPattern::kUniformRandom, rate, len,
                         root.fork());
  }
  std::vector<TraceRecord> live;
  PacketId pid = 0;
  for (Cycle c = 0; c < cycles; ++c) {
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      if (const auto flits = sources[n].maybe_generate(c, pid)) {
        live.push_back({c, n, flits->front().dest, len});
      }
    }
  }
  ASSERT_GT(live.size(), 100u) << "scenario generated almost no packets";

  const auto synth = synthesize_trace(topo, TrafficPattern::kUniformRandom,
                                      rate, len, cycles, Rng(42));
  EXPECT_EQ(synth, live);
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
  // A trace synthesized at rate R, replayed on an otherwise idle network,
  // should land near the live Bernoulli sources' latency (the injection
  // paths differ slightly — trace packets queue at the PE — so allow a
  // modest band).
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
  sim.network().load_trace(synthesize_trace(
      sim.network().topology(), TrafficPattern::kUniformRandom, 0.1, 4,
      140'000, Rng(42)));
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
