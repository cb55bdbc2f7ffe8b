// Unit tests for SimConfig validation and key=value overrides.

#include "common/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ftnoc {
namespace {

TEST(Config, DefaultsAreValid) {
  SimConfig cfg;
  EXPECT_EQ(cfg.validate(), std::nullopt);
  EXPECT_EQ(cfg.num_nodes(), 64);
}

TEST(Config, RejectsTinyMesh) {
  SimConfig cfg;
  cfg.mesh_width = 1;
  cfg.mesh_height = 1;
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(Config, RejectsShallowRetransmissionBuffer) {
  SimConfig cfg;
  cfg.retransmission_depth = 2;  // NACK loop needs 3.
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(Config, RejectsBadPipelineDepth) {
  SimConfig cfg;
  cfg.pipeline_stages = 5;
  EXPECT_TRUE(cfg.validate().has_value());
  cfg.pipeline_stages = 0;
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(Config, RejectsOutOfRangeVcBufferDepth) {
  // The upper end is the input ring's 16-bit index range: 65536 would
  // wrap to a 0-slot ring and 65537 to a 1-slot one.
  for (const int depth : {0, -1, 65536, 65537}) {
    SimConfig cfg;
    cfg.vc_buffer_depth = depth;
    EXPECT_TRUE(cfg.validate().has_value()) << depth;
  }
  for (const int depth : {1, 65535}) {
    SimConfig cfg;
    cfg.vc_buffer_depth = depth;
    EXPECT_EQ(cfg.validate(), std::nullopt) << depth;
  }
}

TEST(Config, RejectsOutOfRangeRates) {
  // Each rate key, past either end of its range and non-finite. NaN
  // compares false both ways, so it must fail on its own, not slip past a
  // pair of range tests (a NaN rate would otherwise reach the JSONL
  // output as a bare `nan`, which is not JSON).
  const std::vector<std::string> keys = {
      "injection_rate",  "link_error_rate", "multi_bit_fraction",
      "rt_error_rate",   "va_error_rate",   "sa_error_rate",
      "rtx_error_rate",  "handshake_error_rate"};
  for (const std::string& key : keys) {
    const std::string too_big = key == "injection_rate" ? "3.5" : "1.5";
    for (const std::string& value :
         {too_big, std::string("-0.1"), std::string("nan"),
          std::string("inf"), std::string("-inf")}) {
      SimConfig cfg;
      const auto parse_err = apply_overrides(cfg, {key + "=" + value});
      ASSERT_FALSE(parse_err.has_value()) << key << "=" << value;
      EXPECT_TRUE(cfg.validate().has_value()) << key << "=" << value;
    }
    SimConfig cfg;  // The largest legal value passes.
    const std::string top = key == "injection_rate" ? "3" : "1";
    ASSERT_FALSE(apply_overrides(cfg, {key + "=" + top}).has_value());
    EXPECT_EQ(cfg.validate(), std::nullopt) << key << "=" << top;
  }
}

TEST(Config, RejectsZeroProbeTimers) {
  // Every router builds a deadlock agent whether or not recovery is on, so
  // a zero probe timer must be refused up front either way, not abort in
  // the agent's constructor.
  for (const char* recovery : {"deadlock_recovery=false",
                               "deadlock_recovery=true"}) {
    for (const std::string key : {"probe_timeout", "probe_threshold"}) {
      SimConfig cfg;
      ASSERT_FALSE(apply_overrides(cfg, {recovery, key + "=0"}).has_value());
      const auto err = cfg.validate();
      ASSERT_TRUE(err.has_value()) << recovery << " " << key;
      EXPECT_NE(err->find(key), std::string::npos) << *err;
      ASSERT_FALSE(apply_overrides(cfg, {key + "=1"}).has_value());
      EXPECT_EQ(cfg.validate(), std::nullopt) << recovery << " " << key;
    }
  }
}

TEST(Config, RejectsWarmupNotBelowTotal) {
  SimConfig cfg;
  cfg.warmup_messages = cfg.total_messages;
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(Config, RejectsEq1BoundaryExactly) {
  // Eq. (1) with uniform nodes: recovery needs T + R > M * ceil(T / M).
  // At equality the flits absorbed during recovery exactly refill the
  // freed slots and the recovery pass livelocks, so validate() must
  // refuse equality, not just the strictly-smaller case.
  SimConfig cfg;
  cfg.deadlock.enable_recovery = true;
  cfg.packet_length = 7;         // M
  cfg.vc_buffer_depth = 4;       // T      -> bound = 7 * ceil(4/7) = 7
  cfg.retransmission_depth = 3;  // R      -> T + R = 7 == bound
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("Eq. (1)"), std::string::npos) << *err;
  // One more retransmission slot puts T + R strictly above the bound.
  cfg.retransmission_depth = 4;
  EXPECT_EQ(cfg.validate(), std::nullopt);
  // Without recovery the bound does not apply.
  cfg.retransmission_depth = 3;
  cfg.deadlock.enable_recovery = false;
  EXPECT_EQ(cfg.validate(), std::nullopt);
}

TEST(Config, OverrideParsesNumbers) {
  SimConfig cfg;
  EXPECT_EQ(apply_override(cfg, "mesh_width=4"), std::nullopt);
  EXPECT_EQ(apply_override(cfg, "injection_rate=0.25"), std::nullopt);
  EXPECT_EQ(apply_override(cfg, "link_error_rate=0.001"), std::nullopt);
  EXPECT_EQ(cfg.mesh_width, 4);
  EXPECT_DOUBLE_EQ(cfg.injection_rate, 0.25);
  EXPECT_DOUBLE_EQ(cfg.faults.link_error_rate, 0.001);
}

TEST(Config, OverrideParsesEnums) {
  SimConfig cfg;
  EXPECT_EQ(apply_override(cfg, "pattern=bc"), std::nullopt);
  EXPECT_EQ(cfg.pattern, TrafficPattern::kBitComplement);
  EXPECT_EQ(apply_override(cfg, "pattern=tn"), std::nullopt);
  EXPECT_EQ(cfg.pattern, TrafficPattern::kTornado);
  EXPECT_EQ(apply_override(cfg, "routing=adaptive"), std::nullopt);
  EXPECT_EQ(cfg.routing, RoutingAlgorithm::kMinimalAdaptive);
  EXPECT_EQ(apply_override(cfg, "protection=e2e"), std::nullopt);
  EXPECT_EQ(cfg.protection, LinkProtection::kE2e);
}

TEST(Config, OverrideParsesBooleans) {
  SimConfig cfg;
  EXPECT_EQ(apply_override(cfg, "deadlock_recovery=true"), std::nullopt);
  EXPECT_TRUE(cfg.deadlock.enable_recovery);
  EXPECT_EQ(apply_override(cfg, "enable_ac=off"), std::nullopt);
  EXPECT_FALSE(cfg.enable_ac);
}

TEST(Config, OverrideRejectsUnknownKey) {
  // A typo, and every key whose option has been deleted: a stale script
  // must fail loudly instead of silently running the default.
  for (const char* a :
       {"bogus=1", "kernel=scan", "kernel=event", "buffer_policy=damq",
        "damq_reserve_slots=2", "dead_router=3"}) {
    SimConfig cfg;
    const auto err = apply_override(cfg, a);
    ASSERT_TRUE(err.has_value()) << a;
    EXPECT_NE(err->find("unknown config key"), std::string::npos)
        << a << ": " << *err;
  }
}

TEST(Config, OverrideRejectsMalformedValue) {
  SimConfig cfg;
  EXPECT_TRUE(apply_override(cfg, "mesh_width=abc").has_value());
  EXPECT_TRUE(apply_override(cfg, "pattern=xyz").has_value());
  EXPECT_TRUE(apply_override(cfg, "no_equals_sign").has_value());
  // A link's node must fit a NodeId: 65541 would wrap to node 5.
  EXPECT_TRUE(apply_override(cfg, "dead_link=65541:E").has_value());
  EXPECT_TRUE(apply_override(cfg, "storm_kill=10:65541:E").has_value());
  EXPECT_TRUE(apply_override(cfg, "storm_kill=10:5:X").has_value());
  EXPECT_TRUE(apply_override(cfg, "storm_kill=5:E").has_value());
  EXPECT_TRUE(cfg.dead_links.empty());
  EXPECT_TRUE(cfg.storm_kills.empty());
  ASSERT_EQ(apply_override(cfg, "storm_kill=10:5:w"), std::nullopt);
  ASSERT_EQ(cfg.storm_kills.size(), 1u);
  EXPECT_EQ(cfg.storm_kills[0].at, 10u);
  EXPECT_EQ(cfg.storm_kills[0].node, 5);
  EXPECT_EQ(cfg.storm_kills[0].dir, Direction::kWest);
}

TEST(Config, ApplyOverridesStopsAtFirstError) {
  SimConfig cfg;
  const auto err =
      apply_overrides(cfg, {"mesh_width=4", "bogus=1", "mesh_height=4"});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(cfg.mesh_width, 4);
  EXPECT_EQ(cfg.mesh_height, 8);  // Not applied.
}

TEST(Config, EnumToString) {
  EXPECT_STREQ(to_string(RoutingAlgorithm::kXY), "xy");
  EXPECT_STREQ(to_string(LinkProtection::kHbh), "hbh");
  EXPECT_STREQ(to_string(TrafficPattern::kTornado), "tn");
}

TEST(Config, RejectsUnknownTestMutation) {
  SimConfig cfg;
  for (const char* plant :
       {"drop_window", "route_into_dead_link", "strand_waiter"}) {
    cfg.test_mutation = plant;
    EXPECT_EQ(cfg.validate(), std::nullopt) << plant;
  }
  // A mistyped plant used to plant nothing, silently.
  EXPECT_EQ(apply_override(cfg, "test_mutation=strand_waitr"), std::nullopt);
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("test_mutation"), std::string::npos) << *err;
}

TEST(Config, RejectsDeadLinkAtMeshEdge) {
  // Node 0's West port has no neighbour on a 2x2 mesh: there is no link
  // to fail, and the fault used to vanish silently at runtime.
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  ASSERT_EQ(apply_override(cfg, "dead_link=0:W"), std::nullopt);
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("dead_link 0:W"), std::string::npos) << *err;
  EXPECT_NE(err->find("mesh edge"), std::string::npos) << *err;
  // The same port wraps around on a torus, so the link exists there.
  cfg.torus = true;
  EXPECT_EQ(cfg.validate(), std::nullopt);
  cfg.torus = false;
  cfg.dead_links = {{0, Direction::kEast}};
  EXPECT_EQ(cfg.validate(), std::nullopt);
}

TEST(Config, RejectsStormKillAtMeshEdge) {
  SimConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  ASSERT_EQ(apply_override(cfg, "storm_kill=5:0:N"), std::nullopt);
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("storm_kill 0:N"), std::string::npos) << *err;
  EXPECT_NE(err->find("mesh edge"), std::string::npos) << *err;
  cfg.storm_kills[0].dir = Direction::kSouth;
  EXPECT_EQ(cfg.validate(), std::nullopt);
}

}  // namespace
}  // namespace ftnoc
