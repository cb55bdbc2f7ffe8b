// Tests for the parallel sweep subsystem: engine determinism across
// thread counts, in-order streaming, grid expansion, presets and JSONL
// serialization.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "config_key_values.hpp"
#include "sweep/grid.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/presets.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc {
namespace {

/// Small-but-real points: big enough to exercise the network, small
/// enough that a whole grid runs in seconds.
SimConfig tiny_config() {
  SimConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_vcs = 2;
  cfg.warmup_messages = 200;
  cfg.total_messages = 1'200;
  cfg.max_cycles = 200'000;
  return cfg;
}

std::vector<sweep::SweepPoint> tiny_grid() {
  std::vector<sweep::SweepPoint> points;
  for (const double rate : {0.05, 0.10, 0.15, 0.20}) {
    sweep::SweepPoint pt;
    pt.label = "inj=" + std::to_string(rate);
    pt.config = tiny_config();
    pt.config.injection_rate = rate;
    pt.config.faults.link_error_rate = 1e-3;
    points.push_back(std::move(pt));
  }
  return points;
}

TEST(SweepEngine, DeterministicAcrossThreadCounts) {
  const auto points = tiny_grid();

  auto run_with = [&](int threads) {
    sweep::SweepOptions opts;
    opts.num_threads = threads;
    opts.base_seed = 7;
    std::vector<std::string> lines;
    for (const auto& pr : sweep::SweepEngine(opts).run(points)) {
      lines.push_back(sweep::to_jsonl(pr));
    }
    return lines;
  };

  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  ASSERT_EQ(serial.size(), points.size());
  // Byte-identical records: per-point seeds depend only on (base_seed,
  // index), and to_jsonl excludes wall-clock.
  EXPECT_EQ(serial, parallel);
}

TEST(SweepEngine, StreamsResultsInPointOrder) {
  const auto points = tiny_grid();
  sweep::SweepOptions opts;
  opts.num_threads = 4;

  std::vector<std::size_t> emitted;
  std::size_t last_done = 0;
  sweep::SweepEngine(opts).run(
      points,
      [&](const sweep::PointResult& pr) { emitted.push_back(pr.index); },
      [&](std::size_t done, std::size_t total, const sweep::PointResult&) {
        EXPECT_EQ(done, last_done + 1);
        EXPECT_EQ(total, points.size());
        last_done = done;
      });

  ASSERT_EQ(emitted.size(), points.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) EXPECT_EQ(emitted[i], i);
  EXPECT_EQ(last_done, points.size());
}

TEST(SweepEngine, SeedPolicies) {
  std::vector<sweep::SweepPoint> points(2);
  points[0].label = "a";
  points[0].config = tiny_config();
  points[0].config.seed = 1234;
  points[1].label = "b";
  points[1].config = tiny_config();
  points[1].config.seed = 1234;

  sweep::SweepOptions keep;
  keep.num_threads = 1;
  keep.seed_policy = sweep::SeedPolicy::kUseConfigSeed;
  const auto kept = sweep::SweepEngine(keep).run(points);
  EXPECT_EQ(kept[0].config.seed, 1234u);
  EXPECT_EQ(kept[1].config.seed, 1234u);

  sweep::SweepOptions derive;
  derive.num_threads = 1;
  derive.base_seed = 99;
  const auto derived = sweep::SweepEngine(derive).run(points);
  EXPECT_EQ(derived[0].config.seed, Rng::derive_seed(99, 0));
  EXPECT_EQ(derived[1].config.seed, Rng::derive_seed(99, 1));
  EXPECT_NE(derived[0].config.seed, derived[1].config.seed);
}

TEST(SweepEngine, EmptySweepIsANoop) {
  sweep::SweepEngine engine;
  EXPECT_TRUE(engine.run({}).empty());
}

TEST(SweepGrid, ParseAxis) {
  sweep::GridAxis axis;
  EXPECT_EQ(sweep::parse_axis("injection_rate=0.1,0.2,0.3", axis),
            std::nullopt);
  EXPECT_EQ(axis.key, "injection_rate");
  EXPECT_EQ(axis.values,
            (std::vector<std::string>{"0.1", "0.2", "0.3"}));

  EXPECT_EQ(sweep::parse_axis("protection=hbh", axis), std::nullopt);
  EXPECT_EQ(axis.values, std::vector<std::string>{"hbh"});

  EXPECT_NE(sweep::parse_axis("no_equals_sign", axis), std::nullopt);
  EXPECT_NE(sweep::parse_axis("key=a,,b", axis), std::nullopt);
  EXPECT_NE(sweep::parse_axis("key=", axis), std::nullopt);
}

TEST(SweepGrid, ExpandsCartesianProductFirstAxisSlowest) {
  std::vector<sweep::GridAxis> axes = {
      {"protection", {"hbh", "fec"}},
      {"injection_rate", {"0.05", "0.1", "0.15"}},
      {"total_messages", {"1000"}},  // Single-valued: pins, no label.
  };
  std::vector<sweep::SweepPoint> points;
  ASSERT_EQ(sweep::expand_grid(tiny_config(), axes, points), std::nullopt);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].label, "protection=hbh injection_rate=0.05");
  EXPECT_EQ(points[1].label, "protection=hbh injection_rate=0.1");
  EXPECT_EQ(points[3].label, "protection=fec injection_rate=0.05");
  EXPECT_EQ(points[5].label, "protection=fec injection_rate=0.15");
  EXPECT_EQ(points[5].config.protection, LinkProtection::kFec);
  EXPECT_DOUBLE_EQ(points[5].config.injection_rate, 0.15);
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.total_messages, 1000u);
  }
}

TEST(SweepGrid, NoAxesYieldsTheBasePoint) {
  std::vector<sweep::SweepPoint> points;
  ASSERT_EQ(sweep::expand_grid(tiny_config(), {}, points), std::nullopt);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "base");
}

TEST(SweepGrid, ReportsOverrideAndValidationErrors) {
  std::vector<sweep::SweepPoint> points;
  EXPECT_NE(sweep::expand_grid(tiny_config(), {{"bogus_knob", {"1"}}},
                               points),
            std::nullopt);
  EXPECT_NE(sweep::expand_grid(tiny_config(), {{"num_vcs", {"99"}}}, points),
            std::nullopt);
}

TEST(SweepPresets, Fig05GridShape) {
  const auto points = sweep::fig05_points(tiny_config());
  ASSERT_EQ(points.size(), 15u);  // 3 schemes x 5 rates.
  EXPECT_EQ(points[0].label, "Fig5/HBH/err=1e-05");
  EXPECT_EQ(points[14].label, "Fig5/FEC/err=0.1");
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.validate(), std::nullopt) << pt.label;
    EXPECT_DOUBLE_EQ(pt.config.injection_rate, 0.25);
    // Pure-technique comparison: only FEC corrects in place.
    EXPECT_EQ(pt.config.ecc_detect_only,
              pt.config.protection != LinkProtection::kFec);
  }
}

TEST(SweepPresets, AblCthresGridShape) {
  const auto points = sweep::abl_cthres_points(tiny_config());
  ASSERT_EQ(points.size(), 7u);
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.validate(), std::nullopt) << pt.label;
    EXPECT_TRUE(pt.config.deadlock.enable_recovery);
  }
  EXPECT_EQ(points[0].config.deadlock.probe_threshold, 8u);
  EXPECT_EQ(points[6].config.deadlock.probe_threshold, 512u);
}

TEST(SweepPresets, Fig06And07GridShape) {
  const auto f6 = sweep::fig06_points(tiny_config());
  const auto f7 = sweep::fig07_points(tiny_config());
  ASSERT_EQ(f6.size(), 15u);  // 3 patterns x 5 rates.
  ASSERT_EQ(f6.size(), f7.size());
  EXPECT_EQ(f6[0].label, "Fig6/NR/err=1e-05");
  EXPECT_EQ(f6[14].label, "Fig6/TN/err=0.1");
  for (std::size_t i = 0; i < f6.size(); ++i) {
    EXPECT_EQ(f6[i].config.validate(), std::nullopt) << f6[i].label;
    EXPECT_EQ(f6[i].config.protection, LinkProtection::kHbh);
    EXPECT_DOUBLE_EQ(f6[i].config.injection_rate, 0.25);
    // Figures 6 and 7 read different columns of the same runs: the grids
    // must differ only in their labels.
    EXPECT_EQ(f7[i].label, "Fig7" + f6[i].label.substr(4));
    EXPECT_DOUBLE_EQ(f7[i].config.faults.link_error_rate,
                     f6[i].config.faults.link_error_rate);
    EXPECT_EQ(f7[i].config.pattern, f6[i].config.pattern);
  }
}

TEST(SweepPresets, Fig08And09GridShape) {
  const auto points = sweep::fig08_points(tiny_config());
  ASSERT_EQ(points.size(), 20u);  // {AD, DT} x 10 injection rates.
  EXPECT_EQ(points[0].label, "Fig8/AD/inj=0.1");
  EXPECT_EQ(points[19].label, "Fig8/DT/inj=1");
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.validate(), std::nullopt) << pt.label;
    // Saturation points can never eject the full budget: cycle-capped.
    EXPECT_LE(pt.config.max_cycles, 60'000u);
    // Adaptive routing pairs with deadlock recovery, XY needs none.
    EXPECT_EQ(pt.config.deadlock.enable_recovery,
              pt.config.routing == RoutingAlgorithm::kMinimalAdaptive);
  }
  EXPECT_EQ(sweep::fig09_points(tiny_config()).size(), 20u);
}

TEST(SweepPresets, Fig13GridShape) {
  const auto points = sweep::fig13a_points(tiny_config());
  ASSERT_EQ(points.size(), 12u);  // 3 mechanisms x 4 rates.
  EXPECT_EQ(points[0].label, "Fig13a/LINK-HBH/err=1e-05");
  EXPECT_EQ(points[11].label, "Fig13a/SA-Logic/err=0.01");
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.validate(), std::nullopt) << pt.label;
    // One mechanism active per series.
    const int active = (pt.config.faults.link_error_rate > 0.0 ? 1 : 0) +
                       (pt.config.faults.rt_error_rate > 0.0 ? 1 : 0) +
                       (pt.config.faults.sa_error_rate > 0.0 ? 1 : 0);
    EXPECT_EQ(active, 1) << pt.label;
  }
  EXPECT_DOUBLE_EQ(points[4].config.faults.rt_error_rate, 1e-5);
  EXPECT_DOUBLE_EQ(points[8].config.faults.sa_error_rate, 1e-5);
  EXPECT_EQ(sweep::fig13b_points(tiny_config()).size(), 12u);
}

TEST(SweepPresets, EveryListedNameResolves) {
  const auto& names = sweep::preset_names();
  ASSERT_GE(names.size(), 8u);
  for (const auto& name : names) {
    EXPECT_FALSE(sweep::preset_points(name, tiny_config()).empty()) << name;
  }
}

TEST(SweepPresets, UnknownPresetIsEmpty) {
  EXPECT_TRUE(sweep::preset_points("fig99", tiny_config()).empty());
}

TEST(SweepPresets, NamesLineListsEveryPreset) {
  // The shared "valid presets" diagnostic must stay in lockstep with the
  // dispatch table: every listed name appears on the line, and the line
  // contains nothing that fails to resolve.
  const std::string line = sweep::preset_names_line();
  for (const auto& name : sweep::preset_names()) {
    EXPECT_NE(line.find(name), std::string::npos) << name;
  }
  std::istringstream in(line);
  std::string word;
  while (in >> word) {
    EXPECT_FALSE(sweep::preset_points(word, tiny_config()).empty()) << word;
  }
}

TEST(SweepPresets, LargeFabricGridShapes) {
  // The production-fabric presets pin their mesh dimensions (and, for
  // large_mesh, its scale knobs) inside the preset: a 4x4 tiny base must
  // not leak into the grid, or the golden digest and work pins would
  // silently depend on the caller's scale.
  const auto large = sweep::large_mesh_points(tiny_config());
  ASSERT_EQ(large.size(), 5u);
  EXPECT_EQ(large[0].label, "LargeMesh/mesh16/HBH");
  EXPECT_EQ(large[4].label, "LargeMesh/torus32/HBH");
  for (const auto& pt : large) {
    EXPECT_EQ(pt.config.validate(), std::nullopt) << pt.label;
    EXPECT_GE(pt.config.mesh_width, 16) << pt.label;
    EXPECT_EQ(pt.config.mesh_width, pt.config.mesh_height) << pt.label;
    EXPECT_GE(pt.config.total_messages, 2'000u) << pt.label;
  }
  EXPECT_TRUE(large[3].config.torus);
  EXPECT_TRUE(large[4].config.torus);
  EXPECT_EQ(large[4].config.mesh_width, 32);
  EXPECT_FALSE(large[2].config.dead_links.empty());

  const auto deg16 = sweep::fault_degradation_16_points(tiny_config());
  ASSERT_EQ(deg16.size(), 9u);  // k = 0..8.
  EXPECT_EQ(deg16[0].label, "FaultDeg16/k=0");
  EXPECT_EQ(deg16[8].label, "FaultDeg16/k=8");
  for (const auto& pt : deg16) {
    EXPECT_EQ(pt.config.validate(), std::nullopt) << pt.label;
    EXPECT_EQ(pt.config.mesh_width, 16) << pt.label;
    EXPECT_EQ(pt.config.mesh_height, 16) << pt.label;
  }
  EXPECT_EQ(deg16[8].config.dead_links.size(), 8u);
}

TEST(SweepPresets, BufferAblationGridShape) {
  const auto points = sweep::buffer_ablation_points(tiny_config());
  // 5 error rates + 5 load points.
  ASSERT_EQ(points.size(), 10u);
  EXPECT_EQ(points[0].label, "BufAbl/private_vc/err=1e-05");
  EXPECT_EQ(points[5].label, "BufAblLoad/private_vc/inj=0.2");
  EXPECT_EQ(points[9].label, "BufAblLoad/private_vc/inj=1");
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.validate(), std::nullopt) << pt.label;
    EXPECT_EQ(pt.config.routing, RoutingAlgorithm::kXY) << pt.label;
    EXPECT_EQ(pt.config.protection, LinkProtection::kHbh) << pt.label;
  }
}

TEST(SweepJsonl, RecordShapeAndEscaping) {
  sweep::PointResult pr;
  pr.index = 3;
  pr.label = "quote\"back\\slash";
  pr.config = tiny_config();
  pr.results.completed = true;
  pr.results.avg_latency_cycles = 21.5;
  pr.wall_ms = 12.0;

  const std::string line = sweep::to_jsonl(pr);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"point\":3"), std::string::npos);
  EXPECT_NE(line.find("\"label\":\"quote\\\"back\\\\slash\""),
            std::string::npos);
  EXPECT_NE(line.find("\"avg_latency_cycles\":21.5"), std::string::npos);
  // Wall-clock stays out of the record unless asked for, so byte-diffing
  // two runs is meaningful.
  EXPECT_EQ(line.find("wall_ms"), std::string::npos);
  EXPECT_NE(sweep::to_jsonl(pr, /*include_timing=*/true).find("wall_ms"),
            std::string::npos);
}

// Every FTNOC_CONFIG_KEYS row parses through apply_override into its
// member, and a column row shows the value it was given in to_jsonl; a
// row with no column stays out of the config columns.
TEST(ConfigKeys, EveryKeyRoundTripsIntoItsColumn) {
  const SimConfig defaults;
  auto has_field = [](const std::string& line, const std::string& field) {
    return line.find(field + ",") != std::string::npos ||
           line.find(field + "}") != std::string::npos;
  };
#define FTNOC_X(key, member, rule)                                          \
  {                                                                         \
    const auto value = test::other_value(defaults.member);                  \
    sweep::PointResult pr;                                                  \
    ASSERT_EQ(apply_override(pr.config, std::string(#key "=") +             \
                                            test::override_text(value)),    \
              std::nullopt)                                                 \
        << #key;                                                            \
    EXPECT_EQ(pr.config.member, value) << #key;                             \
    sweep::JsonRecord rec;                                                  \
    sweep::append_config_fields(rec, pr.config);                            \
    const std::string columns = rec.close();                                \
    const std::string line = sweep::to_jsonl(pr);                           \
    if (ConfigColumn::rule == ConfigColumn::kAlways ||                      \
        ConfigColumn::rule == ConfigColumn::kIfSet) {                       \
      EXPECT_TRUE(has_field(line, "\"" #key "\":" + test::json_text(value))) \
          << line;                                                          \
    } else {                                                                \
      EXPECT_EQ(columns.find("\"" #key "\":"), std::string::npos) << #key;  \
    }                                                                       \
  }
#define FTNOC_COMPOSITE(key)
  FTNOC_CONFIG_KEYS(FTNOC_X, FTNOC_COMPOSITE)
#undef FTNOC_COMPOSITE
#undef FTNOC_X

  // A flag column is absent while the flag holds its default.
  sweep::PointResult pr;
  const std::string line = sweep::to_jsonl(pr);
  for (const char* key : {"adaptive_faults", "run_to_drain", "link_stats"}) {
    EXPECT_EQ(line.find(std::string("\"") + key + "\":"), std::string::npos)
        << key;
  }
}

TEST(ConfigKeys, EnumAliasesParseToTheCanonicalName) {
  const struct {
    const char* assignment;
    const char* canonical;
  } cases[] = {{"routing=dt", "xy"},        {"routing=ad", "adaptive"},
               {"routing=duato", "escape"}, {"pattern=uniform", "nr"},
               {"pattern=bitcomp", "bc"},   {"pattern=tornado", "tn"}};
  for (const auto& c : cases) {
    sweep::PointResult pr;
    ASSERT_EQ(apply_override(pr.config, c.assignment), std::nullopt);
    const std::string key =
        std::string(c.assignment).substr(0, std::string(c.assignment).find('='));
    EXPECT_NE(sweep::to_jsonl(pr).find("\"" + key + "\":\"" + c.canonical +
                                       "\""),
              std::string::npos)
        << c.assignment;
  }
}

}  // namespace
}  // namespace ftnoc
