// Tests for application-style workloads (DESIGN.md §4.14): the text
// format, the group-directive expansions, segmentation into TraceRecords,
// the workload_text/run_to_drain simulation path and the per-link
// utilization columns that ride along with it.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "noc/simulator.hpp"
#include "noc/workload.hpp"

namespace ftnoc {
namespace {

Workload parse(const std::string& text, int num_nodes, std::string* err) {
  std::istringstream in(text);
  return parse_workload(in, num_nodes, err);
}

TEST(WorkloadParse, ParsesTransferWithBurst) {
  std::string err;
  const Workload wl = parse(
      "# comment\n"
      "transfer req start=10 src=0 dest=3 flits=4 count=3 period=100\n",
      16, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(wl.transfers.size(), 3u);
  EXPECT_EQ(wl.transfers[0], (WorkloadTransfer{"req", 10, 0, 3, 4}));
  EXPECT_EQ(wl.transfers[1], (WorkloadTransfer{"req", 110, 0, 3, 4}));
  EXPECT_EQ(wl.transfers[2], (WorkloadTransfer{"req", 210, 0, 3, 4}));
}

TEST(WorkloadParse, BytesConvertAtEightPerFlit) {
  std::string err;
  const Workload wl = parse(
      "transfer a start=0 src=0 dest=1 bytes=256\n"   // 32 flits.
      "transfer b start=0 src=0 dest=1 bytes=1\n"     // Rounds up to 1.
      "transfer c start=0 src=0 dest=1 bytes=9\n",    // Rounds up to 2.
      16, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(wl.transfers.size(), 3u);
  EXPECT_EQ(wl.transfers[0].flits, 32);
  EXPECT_EQ(wl.transfers[1].flits, 1);
  EXPECT_EQ(wl.transfers[2].flits, 2);
}

TEST(WorkloadParse, PacketFlitsAppliesFromItsLineDown) {
  // The directive re-segments everything after it; the transfer above it
  // keeps the default size of 4.
  std::string err;
  const Workload wl = parse(
      "transfer a start=0 src=0 dest=1 flits=8\n"
      "packet_flits 2\n"
      "transfer b start=0 src=2 dest=3 flits=8\n",
      16, &err);
  ASSERT_TRUE(err.empty()) << err;
  const auto recs = expand_workload(wl);
  ASSERT_EQ(recs.size(), 6u);  // 8/4 = 2 packets + 8/2 = 4 packets.
  EXPECT_EQ(recs[0].length, 4);
  EXPECT_EQ(recs[1].length, 4);
  for (int i = 2; i < 6; ++i) EXPECT_EQ(recs[i].length, 2);
}

TEST(WorkloadParse, ManyToOneExpandsAscendingSendersWithStagger) {
  std::string err;
  const Workload wl = parse(
      "many_to_one sink start=100 dest=2 flits=4 stagger=5\n", 4, &err);
  ASSERT_TRUE(err.empty()) << err;
  // Senders 0, 1, 3 (dest 2 skipped), i-th sender offset i*stagger.
  ASSERT_EQ(wl.transfers.size(), 3u);
  EXPECT_EQ(wl.transfers[0], (WorkloadTransfer{"sink", 100, 0, 2, 4}));
  EXPECT_EQ(wl.transfers[1], (WorkloadTransfer{"sink", 105, 1, 2, 4}));
  EXPECT_EQ(wl.transfers[2], (WorkloadTransfer{"sink", 110, 3, 2, 4}));
}

TEST(WorkloadParse, AllToAllExpandsEveryOrderedPair) {
  std::string err;
  const Workload wl = parse(
      "all_to_all x start=0 flits=1 stagger=10\n", 3, &err);
  ASSERT_TRUE(err.empty()) << err;
  // 3*2 ordered pairs; source block s offset by s*stagger.
  ASSERT_EQ(wl.transfers.size(), 6u);
  EXPECT_EQ(wl.transfers[0], (WorkloadTransfer{"x", 0, 0, 1, 1}));
  EXPECT_EQ(wl.transfers[1], (WorkloadTransfer{"x", 0, 0, 2, 1}));
  EXPECT_EQ(wl.transfers[2], (WorkloadTransfer{"x", 10, 1, 0, 1}));
  EXPECT_EQ(wl.transfers[3], (WorkloadTransfer{"x", 10, 1, 2, 1}));
  EXPECT_EQ(wl.transfers[4], (WorkloadTransfer{"x", 20, 2, 0, 1}));
  EXPECT_EQ(wl.transfers[5], (WorkloadTransfer{"x", 20, 2, 1, 1}));
}

TEST(WorkloadExpand, SegmentsWithRemainderInLastPacket) {
  Workload wl;
  wl.transfers.push_back({"t", 7, 0, 1, 10});
  wl.transfer_packet_flits.push_back(4);
  const auto recs = expand_workload(wl);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0], (TraceRecord{7, 0, 1, 4}));
  EXPECT_EQ(recs[1], (TraceRecord{7, 0, 1, 4}));
  EXPECT_EQ(recs[2], (TraceRecord{7, 0, 1, 2}));
}

TEST(WorkloadExpand, EqualCycleRecordsKeepFileOrder) {
  // The replay path injects same-cycle records in vector order, so the
  // sort must be stable on cycle (digest-relevant).
  std::string err;
  const Workload wl = parse(
      "transfer a start=5 src=0 dest=1 flits=4\n"
      "transfer b start=0 src=2 dest=3 flits=4\n"
      "transfer c start=5 src=4 dest=5 flits=4\n",
      16, &err);
  ASSERT_TRUE(err.empty()) << err;
  const auto recs = expand_workload(wl);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].src, 2);  // b first (cycle 0)...
  EXPECT_EQ(recs[1].src, 0);  // ...then a before c at cycle 5.
  EXPECT_EQ(recs[2].src, 4);
}

TEST(WorkloadParse, RejectsMalformedInput) {
  const struct {
    const char* text;
    const char* expect;  // Substring the error must contain.
  } cases[] = {
      {"bogus x start=0\n", "unknown directive"},
      {"transfer t src=0 dest=1 flits=4\n", "requires start="},
      {"transfer t start=0 src=0 dest=1\n", "exactly one of flits= or bytes="},
      {"transfer t start=0 src=0 dest=1 flits=4 bytes=8\n",
       "exactly one of flits= or bytes="},
      {"transfer t start=0 src=0 dest=1 flits=0\n", "flits must be in"},
      {"transfer t start=0 src=0 dest=0 flits=4\n", "src == dest"},
      {"transfer t start=0 src=0 dest=99 flits=4\n", "node id out of range"},
      {"transfer t start=0 src=0 dest=1 flits=4 stagger=2\n",
       "does not take stagger="},
      {"transfer t start=0 src=0 dest=1 flits=4 count=0\n", "count must be in"},
      {"transfer t start=0 src=0 dest=1 flits=4 wat=1\n", "unknown key"},
      {"transfer t start=x src=0 dest=1 flits=4\n", "bad value for start"},
      // Values are plain decimal digits: no sign, no blank, no overflow,
      // and the signed fields stop below 2^63.
      {"transfer t start=+5 src=0 dest=1 flits=4\n", "bad value for start"},
      {"transfer t start= 5 src=0 dest=1 flits=4\n", "bad value for start"},
      {"transfer t start=0 src=-1 dest=1 flits=4\n", "bad value for src"},
      {"transfer t start=18446744073709551616 src=0 dest=1 flits=4\n",
       "bad value for start"},
      {"transfer t start=0 src=0 dest=1 flits=9223372036854775808\n",
       "bad value for flits"},
      {"packet_flits +4\n", "packet_flits expects an integer"},
      {"many_to_one t start=0 src=2 dest=1 flits=4\n", "does not take src="},
      {"all_to_all t start=0 flits=4 count=2\n", "does not take count="},
      {"packet_flits 0\n", "packet_flits must be in"},
      {"packet_flits 257\n", "packet_flits must be in"},
      {"packet_flits 4 junk\n", "trailing junk"},
      // One transfer that alone blows the 2^20 expanded-packet cap.
      {"packet_flits 1\ntransfer t start=0 src=0 dest=1 flits=1048576 "
       "count=2\n",
       "expands to more than"},
  };
  for (const auto& c : cases) {
    std::string err;
    const Workload wl = parse(c.text, 16, &err);
    EXPECT_FALSE(err.empty()) << "accepted: " << c.text;
    EXPECT_NE(err.find(c.expect), std::string::npos)
        << "for input `" << c.text << "` got error: " << err;
    EXPECT_TRUE(wl.transfers.empty());
  }
}

TEST(WorkloadParse, ErrorNamesTheLine) {
  std::string err;
  parse("transfer a start=0 src=0 dest=1 flits=4\n\nbogus\n", 16, &err);
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(WorkloadReplay, DrainsWorkloadAndCountsEveryPacket) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.0;  // Pure workload-driven.
  cfg.warmup_messages = 0;
  cfg.total_messages = 1;  // Ignored: run_to_drain ends on completion.
  cfg.max_cycles = 100'000;
  cfg.run_to_drain = true;
  cfg.workload_text =
      "packet_flits 4\n"
      "many_to_one sink start=0 dest=5 flits=8 stagger=3\n"
      "transfer back start=50 src=5 dest=10 flits=4\n";
  Simulator sim(cfg);
  std::map<NodeId, int> per_dest;
  sim.network().set_delivery_listener(
      [&](NodeId d, const Flit&, Cycle) { ++per_dest[d]; });
  const SimResults r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_LT(r.cycles, cfg.max_cycles);  // Drained, not cycle-capped.
  // 15 senders x 2 packets into node 5, plus 1 packet into node 10.
  EXPECT_EQ(per_dest[5], 30);
  EXPECT_EQ(per_dest[10], 1);
}

TEST(WorkloadReplay, LinkUtilSeesExactlyTheTraversedLinks) {
  // One 8-flit transfer from node 0 to node 3 under XY routing crosses
  // the three East links of row 0 and nothing else: each carries all 8
  // flits exactly once on an otherwise idle mesh.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 1;
  cfg.max_cycles = 10'000;
  cfg.run_to_drain = true;
  cfg.link_stats = true;
  cfg.workload_text = "transfer t start=0 src=0 dest=3 flits=8\n";
  const SimResults r = run_simulation(cfg);
  ASSERT_TRUE(r.completed);
  std::map<int, std::uint64_t> fwd;  // node*4+dir -> flits forwarded.
  for (const auto& lu : r.link_util) {
    if (lu.fwd) fwd[lu.node * 4 + lu.dir] = lu.fwd;
  }
  const int east = static_cast<int>(Direction::kEast);
  ASSERT_EQ(fwd.size(), 3u) << "flits crossed links off the XY path";
  EXPECT_EQ(fwd[0 * 4 + east], 8u);
  EXPECT_EQ(fwd[1 * 4 + east], 8u);
  EXPECT_EQ(fwd[2 * 4 + east], 8u);
}

TEST(WorkloadReplay, ThroughputCountsEachPacketsOwnFlits) {
  // Workload packets carry their own lengths (5, 5 and a 3-flit remainder;
  // 2 and 2), not the packet_length knob: 17 flits in 5 messages.
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.packet_length = 4;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 1;
  cfg.max_cycles = 10'000;
  cfg.run_to_drain = true;
  cfg.workload_text =
      "packet_flits 5\n"
      "transfer a start=0 src=0 dest=3 flits=13\n"
      "packet_flits 2\n"
      "transfer b start=0 src=12 dest=15 flits=4\n";
  const SimResults r = run_simulation(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.measured_messages, 5u);
  EXPECT_DOUBLE_EQ(r.throughput_flits_node_cycle,
                   17.0 / (static_cast<double>(r.cycles) * 16.0));
}

TEST(WorkloadReplay, LinkStatsOffLeavesResultsEmpty) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.0;
  cfg.warmup_messages = 0;
  cfg.total_messages = 1;
  cfg.max_cycles = 10'000;
  cfg.run_to_drain = true;
  cfg.workload_text = "transfer t start=0 src=0 dest=3 flits=8\n";
  const SimResults r = run_simulation(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.link_util.empty());
}

TEST(WorkloadReplayDeath, RejectsInvalidWorkloadText) {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.injection_rate = 0.0;
  cfg.workload_text = "transfer t start=0 src=0 dest=99 flits=4\n";
  EXPECT_DEATH(Simulator sim(cfg), "FTNOC_CHECK");
}

}  // namespace
}  // namespace ftnoc
