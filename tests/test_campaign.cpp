// Tests for the Monte-Carlo campaign subsystem: byte-identical output
// across thread counts, crash-resume from (possibly torn) journals,
// adaptive sequential stopping, the interval estimators behind the
// aggregate records, and the seed-packing gate that keeps legacy campaigns
// byte-identical while de-aliasing 32x32-scale grids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/estimators.hpp"
#include "campaign/journal.hpp"
#include "common/rng.hpp"
#include "common/stats_util.hpp"
#include "config_key_values.hpp"
#include "noc/stats.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc {
namespace {

/// Small-but-real base point, mirroring tests/test_sweep.cpp.
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
  for (const double rate : {0.05, 0.15}) {
    sweep::SweepPoint pt;
    pt.label = "inj=" + std::to_string(rate);
    pt.config = tiny_config();
    pt.config.injection_rate = rate;
    pt.config.faults.link_error_rate = 1e-3;
    points.push_back(std::move(pt));
  }
  return points;
}

struct CampaignOutput {
  std::vector<std::string> lines;  ///< Journal lines, in emission order.
  std::vector<std::string> aggs;   ///< Serialized aggregate records.
  std::vector<campaign::PointAggregate> result;
  int fresh = 0;  ///< Replicas actually simulated (not replayed).
};

CampaignOutput run_campaign(const std::vector<sweep::SweepPoint>& points,
                            const campaign::CampaignOptions& opts,
                            const campaign::Journal* resume = nullptr) {
  CampaignOutput out;
  campaign::CampaignEngine engine(opts);
  out.result = engine.run(
      points, resume,
      [&](const std::string& line) { out.lines.push_back(line); },
      [&](const campaign::PointAggregate& agg) {
        out.aggs.push_back(campaign::aggregate_line(agg, opts.campaign_seed));
      },
      [&](const campaign::PointAggregate&, int fresh) { out.fresh += fresh; });
  return out;
}

std::vector<std::uint64_t> point_hashes(
    const std::vector<sweep::SweepPoint>& points) {
  std::vector<std::uint64_t> hashes;
  for (const auto& pt : points) {
    hashes.push_back(campaign::config_hash(pt.config));
  }
  return hashes;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines, std::size_t count,
                 const char* torn_tail = nullptr) {
  std::ofstream f(path, std::ios::trunc);
  for (std::size_t i = 0; i < count; ++i) f << lines[i] << '\n';
  if (torn_tail != nullptr) f << torn_tail;  // No newline: a mid-write crash.
}

TEST(Campaign, ByteIdenticalAcrossThreadCounts) {
  const auto points = tiny_grid();
  campaign::CampaignOptions opts;
  opts.campaign_seed = 7;
  opts.stop.max_replicas = 4;
  opts.stop.min_replicas = 4;

  opts.num_threads = 1;
  const auto serial = run_campaign(points, opts);
  opts.num_threads = 8;
  const auto parallel = run_campaign(points, opts);

  // 2 points x 4 replicas + 2 aggregate records.
  ASSERT_EQ(serial.lines.size(), 10u);
  EXPECT_EQ(serial.lines, parallel.lines);
  EXPECT_EQ(serial.aggs, parallel.aggs);
  EXPECT_EQ(serial.fresh, 8);
  EXPECT_EQ(parallel.fresh, 8);

  ASSERT_EQ(serial.result.size(), 2u);
  for (const auto& agg : serial.result) {
    EXPECT_EQ(agg.replicas, 4);
    EXPECT_FALSE(agg.stopped_early);  // No CI target configured.
    EXPECT_GT(agg.latency.mean(), 0.0);
    EXPECT_GT(agg.measured_messages, 0u);
  }
}

TEST(Campaign, ResumeFromJournalPrefixIsByteIdentical) {
  const auto points = tiny_grid();
  const auto hashes = point_hashes(points);
  campaign::CampaignOptions opts;
  opts.num_threads = 2;
  opts.campaign_seed = 7;
  opts.stop.max_replicas = 4;
  opts.stop.min_replicas = 4;

  const auto full = run_campaign(points, opts);
  ASSERT_EQ(full.lines.size(), 10u);

  const std::string path = ::testing::TempDir() + "campaign_resume.jsonl";
  // Crash points: nothing written, mid-campaign, and all-but-last line.
  // The last case also leaves a torn half-line behind, as a real crash
  // mid-fprintf would.
  struct Crash {
    std::size_t prefix;
    const char* torn;
  };
  const Crash crashes[] = {
      {0, nullptr},
      {4, nullptr},
      {9, "{\"type\":\"replica\",\"campaign_se"}};
  for (const auto& crash : crashes) {
    write_lines(path, full.lines, crash.prefix, crash.torn);
    const auto journal =
        campaign::Journal::load(path, opts.campaign_seed, hashes);
    EXPECT_TRUE(journal.mismatch().empty()) << journal.mismatch();
    EXPECT_EQ(journal.valid_lines(), crash.prefix);

    const auto resumed = run_campaign(points, opts, &journal);
    // The engine re-emits the full deterministic sequence; callers skip
    // the prefix already on disk. All of it must match the clean run.
    EXPECT_EQ(resumed.lines, full.lines);
    EXPECT_EQ(resumed.aggs, full.aggs);
    // Replayed replicas were not re-simulated.
    EXPECT_EQ(resumed.fresh,
              full.fresh - static_cast<int>(journal.replica_count()));
  }
  std::remove(path.c_str());
}

TEST(Campaign, JournalRejectsForeignLines) {
  const auto points = tiny_grid();
  const auto hashes = point_hashes(points);
  campaign::CampaignOptions opts;
  opts.num_threads = 2;
  opts.campaign_seed = 7;
  opts.stop.max_replicas = 2;
  opts.stop.min_replicas = 2;
  const auto full = run_campaign(points, opts);

  const std::string path = ::testing::TempDir() + "campaign_foreign.jsonl";
  write_lines(path, full.lines, full.lines.size());

  // The matching campaign loads cleanly...
  const auto ok = campaign::Journal::load(path, opts.campaign_seed, hashes);
  EXPECT_TRUE(ok.mismatch().empty());
  EXPECT_EQ(ok.valid_lines(), full.lines.size());
  EXPECT_EQ(ok.replica_count(), 4u);
  EXPECT_TRUE(ok.file_existed());
  EXPECT_NE(ok.find(0, 0), nullptr);
  EXPECT_NE(ok.find(1, 1), nullptr);
  EXPECT_EQ(ok.find(0, 2), nullptr);

  // ...a different campaign seed is refused...
  const auto wrong_seed = campaign::Journal::load(path, 8, hashes);
  EXPECT_FALSE(wrong_seed.mismatch().empty());

  // ...and so is a changed point config (different hash).
  auto other_hashes = hashes;
  other_hashes[0] ^= 1;
  const auto wrong_cfg =
      campaign::Journal::load(path, opts.campaign_seed, other_hashes);
  EXPECT_FALSE(wrong_cfg.mismatch().empty());

  // A missing file is an empty journal, not an error.
  const auto missing = campaign::Journal::load(
      ::testing::TempDir() + "campaign_nonexistent.jsonl",
      opts.campaign_seed, hashes);
  EXPECT_TRUE(missing.mismatch().empty());
  EXPECT_FALSE(missing.file_existed());
  EXPECT_EQ(missing.valid_lines(), 0u);
  std::remove(path.c_str());
}

TEST(Campaign, AdaptiveStoppingRetiresCheapPointsEarly) {
  // Two points identical except for the per-replica message budget: the
  // 4000-message point estimates its mean latency ~sqrt(10)x more tightly
  // per replica than the 400-message point, so under a CI target it should
  // stop at min_replicas while the noisy point runs to the cap.
  std::vector<sweep::SweepPoint> points;
  for (const std::uint64_t budget : {4'000u, 400u}) {
    sweep::SweepPoint pt;
    pt.label = "msgs=" + std::to_string(budget);
    pt.config.mesh_width = 4;
    pt.config.mesh_height = 4;
    pt.config.warmup_messages = 200;
    pt.config.total_messages = budget;
    pt.config.max_cycles = 200'000;
    pt.config.injection_rate = 0.10;
    pt.config.faults.link_error_rate = 1e-3;
    points.push_back(std::move(pt));
  }

  campaign::CampaignOptions opts;
  opts.num_threads = 4;
  opts.stop.ci_abs = 0.15;
  opts.stop.min_replicas = 3;
  opts.stop.wave = 3;
  opts.stop.max_replicas = 12;

  const auto out = run_campaign(points, opts);
  ASSERT_EQ(out.result.size(), 2u);
  const auto& cheap = out.result[0];
  const auto& noisy = out.result[1];
  EXPECT_TRUE(cheap.stopped_early);
  EXPECT_LT(cheap.replicas, opts.stop.max_replicas);
  EXPECT_LE(cheap.latency_ci(), opts.stop.ci_abs);
  EXPECT_FALSE(noisy.stopped_early);
  EXPECT_EQ(noisy.replicas, opts.stop.max_replicas);
  // The saved work is visible in the journal's replica-count records.
  EXPECT_EQ(out.fresh, cheap.replicas + noisy.replicas);
  const std::string cheap_agg = aggregate_line(cheap, opts.campaign_seed);
  EXPECT_NE(cheap_agg.find("\"stopped_early\":true"), std::string::npos);
  EXPECT_NE(cheap_agg.find("\"replicas\":" + std::to_string(cheap.replicas)),
            std::string::npos);
}

TEST(Campaign, StopRuleNeverFiresBelowMinReplicas) {
  campaign::PointAggregate agg;
  SimResults r;
  r.completed = true;
  r.avg_latency_cycles = 20.0;
  campaign::StopRule rule;
  rule.ci_abs = 1e9;  // Trivially satisfiable.
  rule.min_replicas = 4;
  rule.max_replicas = 8;

  for (int i = 0; i < 3; ++i) {
    agg.add_replica(r);
    EXPECT_FALSE(agg.meets(rule)) << "fired at replica " << i + 1;
  }
  agg.add_replica(r);
  EXPECT_TRUE(agg.meets(rule));

  campaign::StopRule off;  // No CI target: fixed-R campaign.
  EXPECT_FALSE(off.adaptive());
  EXPECT_FALSE(agg.meets(off));
}

TEST(CampaignEstimators, WilsonIntervalStaysInUnitRange) {
  for (const std::uint64_t n : {1u, 2u, 7u, 100u, 10'000u}) {
    for (const std::uint64_t s : {std::uint64_t{0}, n / 3, n}) {
      const RateInterval w = wilson_interval(s, n);
      EXPECT_GE(w.low, 0.0) << s << "/" << n;
      EXPECT_LE(w.high, 1.0) << s << "/" << n;
      EXPECT_LE(w.low, w.rate) << s << "/" << n;
      EXPECT_GE(w.high, w.rate) << s << "/" << n;
      EXPECT_DOUBLE_EQ(w.rate, static_cast<double>(s) / n);
    }
  }
  // Zero trials: the vacuous interval, never NaN.
  const RateInterval empty = wilson_interval(0, 0);
  EXPECT_EQ(empty.low, 0.0);
  EXPECT_EQ(empty.high, 1.0);
  // Unlike a normal interval, p-hat = 0 stays informative: the upper bound
  // tightens with n instead of collapsing to [0, 0].
  EXPECT_GT(wilson_interval(0, 10).high, wilson_interval(0, 1000).high);
  EXPECT_GT(wilson_interval(0, 1000).high, 0.0);
}

TEST(CampaignEstimators, OvercountedSuccessesAndEjectionsClampSafely) {
  // A replica stopped mid-E2E-retransmit can double-deliver: ejections
  // transiently exceed creations. Neither the interval nor loss() may
  // wrap the unsigned difference or leave the unit range.
  const RateInterval over = wilson_interval(12, 10);
  EXPECT_DOUBLE_EQ(over.rate, 1.0);
  EXPECT_LE(over.high, 1.0);
  EXPECT_GE(over.low, 0.0);

  campaign::PointAggregate agg;
  agg.packets_created = 10;
  agg.messages_ejected = 12;
  const RateInterval loss = agg.loss();
  EXPECT_DOUBLE_EQ(loss.rate, 0.0);
  EXPECT_GE(loss.low, 0.0);
  EXPECT_LE(loss.high, 1.0);
}

TEST(CampaignEstimators, WilsonIntervalShrinksMonotonically) {
  // Fixed p-hat = 0.1, growing n: the width must strictly shrink.
  double prev_width = 2.0;
  for (const std::uint64_t n : {10u, 100u, 1'000u, 10'000u, 100'000u}) {
    const RateInterval w = wilson_interval(n / 10, n);
    const double width = w.high - w.low;
    EXPECT_LT(width, prev_width) << "n=" << n;
    prev_width = width;
  }
  EXPECT_LT(prev_width, 0.005);  // And converges toward zero.
}

TEST(CampaignEstimators, MeanCiHalfwidth) {
  RunningStat s;
  EXPECT_TRUE(std::isinf(mean_ci_halfwidth(s)));  // No data: no interval.
  s.add(10.0);
  EXPECT_TRUE(std::isinf(mean_ci_halfwidth(s)));  // One sample: no spread.
  for (int i = 2; i <= 10; ++i) s.add(10.0 + i);
  EXPECT_NEAR(mean_ci_halfwidth(s),
              kZ95 * s.stddev() / std::sqrt(10.0), 1e-12);
  // More replicas at the same spread tighten the interval.
  RunningStat wide;
  for (int i = 0; i < 4; ++i) wide.add(i % 2 == 0 ? 10.0 : 20.0);
  RunningStat narrow;
  for (int i = 0; i < 16; ++i) narrow.add(i % 2 == 0 ? 10.0 : 20.0);
  EXPECT_LT(mean_ci_halfwidth(narrow), mean_ci_halfwidth(wide));
}

TEST(CampaignJournal, ConfigHashIgnoresSeedOnly) {
  const SimConfig a = tiny_config();
  const std::uint64_t h = campaign::config_hash(a);
  // Changing a key that changes a run changes the hash; the seed (replicas
  // differ only in seed) and the verification switches do not.
#define FTNOC_X(key, member, rule)                               \
  {                                                              \
    SimConfig b = a;                                             \
    b.member = test::other_value(a.member);                      \
    if (ConfigColumn::rule == ConfigColumn::kNone) {             \
      EXPECT_EQ(campaign::config_hash(b), h) << #key;            \
    } else {                                                     \
      EXPECT_NE(campaign::config_hash(b), h) << #key;            \
    }                                                            \
  }
#define FTNOC_COMPOSITE(key)
  FTNOC_CONFIG_KEYS(FTNOC_X, FTNOC_COMPOSITE)
#undef FTNOC_COMPOSITE
#undef FTNOC_X
  SimConfig b = a;
  b.dead_links.emplace_back(5, Direction::kEast);
  EXPECT_NE(campaign::config_hash(b), h);
  b = a;
  b.storm_kills.push_back({100, 6, Direction::kSouth});
  EXPECT_NE(campaign::config_hash(b), h);
  b = a;
  b.workload_text = "transfer t start=0 src=0 dest=1 flits=4\n";
  EXPECT_NE(campaign::config_hash(b), h);

  // Keys at their defaults hash as they did before the kHashOnly keys
  // joined the hash, so existing journals still resume.
  EXPECT_EQ(h, 1232885569702640658ull);
  b.dead_links.emplace_back(5, Direction::kEast);
  b.storm_kills.push_back({100, 6, Direction::kSouth});
  b.adaptive_faults = b.run_to_drain = b.link_stats = true;
  EXPECT_EQ(campaign::config_hash(b), 9090363419172181359ull);
}

TEST(CampaignJournal, ReplicaLineRoundTripsResults) {
  const auto points = tiny_grid();
  const auto hashes = point_hashes(points);
  campaign::CampaignOptions opts;
  opts.num_threads = 1;
  opts.campaign_seed = 3;
  opts.stop.max_replicas = 1;
  opts.stop.min_replicas = 1;
  const auto run = run_campaign(points, opts);

  const std::string path = ::testing::TempDir() + "campaign_roundtrip.jsonl";
  write_lines(path, run.lines, run.lines.size());
  const auto journal =
      campaign::Journal::load(path, opts.campaign_seed, hashes);
  ASSERT_TRUE(journal.mismatch().empty()) << journal.mismatch();

  // A campaign replaying every replica from the journal must aggregate to
  // the exact same records without simulating anything.
  const auto replayed = run_campaign(points, opts, &journal);
  EXPECT_EQ(replayed.fresh, 0);
  EXPECT_EQ(replayed.aggs, run.aggs);
  EXPECT_EQ(replayed.lines, run.lines);
  std::remove(path.c_str());
}


// --- Counter table (noc/stats.hpp FTNOC_COUNTERS) --------------------------
// Real runs leave most counters at zero, so a round trip over them cannot
// tell a dropped or swapped column from a correct one. These results give
// every table entry its own non-zero value.
SimResults distinct_counter_results() {
  SimResults r;
  std::uint64_t v = 1000;
#define FTNOC_X(name, window, gate) r.name = ++v;
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
  return r;
}

/// The unsigned value of `"key":` in a flat JSON line, or nullopt.
std::optional<std::uint64_t> json_u64(const std::string& line,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return std::stoull(line.substr(pos + needle.size()));
}

TEST(CounterTable, JournalParsesEveryUngatedCounterBack) {
  const SimResults r = distinct_counter_results();
  const std::uint64_t hash = campaign::config_hash(tiny_config());
  const std::string path = ::testing::TempDir() + "counter_table.jsonl";
  write_lines(path, {campaign::replica_line(7, 0, 0, hash, 1, r)}, 1);
  const auto journal = campaign::Journal::load(path, 7, {hash});
  ASSERT_TRUE(journal.mismatch().empty()) << journal.mismatch();
  const SimResults* back = journal.find(0, 0);
  ASSERT_NE(back, nullptr);
#define FTNOC_X(name, window, gate)                   \
  if (CounterGate::gate == CounterGate::kAlways) {    \
    EXPECT_EQ(back->name, r.name) << #name;           \
  }
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
  std::remove(path.c_str());
}

/// Checks that `to_jsonl` carries each table counter, with its own value,
/// exactly when its gate is kAlways or listed in `open`.
void expect_columns(const SimConfig& cfg, std::vector<CounterGate> open) {
  sweep::PointResult pr;
  pr.config = cfg;
  pr.results = distinct_counter_results();
  open.push_back(CounterGate::kAlways);
  const std::string line = sweep::to_jsonl(pr);
#define FTNOC_X(name, window, gate)                                     \
  if (std::find(open.begin(), open.end(), CounterGate::gate) !=         \
      open.end()) {                                                     \
    EXPECT_EQ(json_u64(line, #name), pr.results.name) << #name;         \
  } else {                                                              \
    EXPECT_FALSE(json_u64(line, #name).has_value()) << #name;           \
  }
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
}

TEST(CounterTable, ToJsonlEmitsEveryCounterOnlyUnderItsGate) {
  SimConfig cfg = tiny_config();
  expect_columns(cfg, {});

  // A workload opens no counter gate of its own.
  SimConfig workload = cfg;
  workload.workload_text = "all_to_all background start=0 flits=4\n";
  expect_columns(workload, {});

  // A storm timeline is a permanent fault too, so its gate never opens
  // alone; a static dead link opens only the permanent-fault gate.
  cfg.dead_links.emplace_back(5, Direction::kEast);
  expect_columns(cfg, {CounterGate::kPermanentFaults});

  cfg.storm_kills.push_back({100, 6, Direction::kSouth});
  cfg.workload_text = workload.workload_text;
  expect_columns(cfg, {CounterGate::kPermanentFaults,
                       CounterGate::kStormKills});
}

// ---------------------------------------------------------------------------
// Seed packing: the legacy linear index wraps mod 2^64 once
// point * 2^20 crosses it; the wide two-level derivation doesn't, and the
// gate picks legacy exactly for the campaigns whose bytes are already
// pinned.
// ---------------------------------------------------------------------------

TEST(CampaignSeeds, GateKeepsSmallCampaignsOnLegacyPacking) {
  using campaign::SeedPacking;
  constexpr std::uint64_t kStride = campaign::kReplicaStride;
  // Every shipped preset is a handful of points with replica caps far
  // below 2^20: all legacy, so existing journals and digests stay valid.
  EXPECT_EQ(campaign::seed_packing(2, 4), SeedPacking::kLegacy);
  EXPECT_EQ(campaign::seed_packing(15, 1024), SeedPacking::kLegacy);
  EXPECT_EQ(campaign::seed_packing(kStride, 16), SeedPacking::kLegacy);
  // Either axis outgrowing the stride flips the campaign to wide.
  EXPECT_EQ(campaign::seed_packing(kStride + 1, 16), SeedPacking::kWide);
  EXPECT_EQ(campaign::seed_packing(2, (1 << 20) + 1), SeedPacking::kWide);
}

TEST(CampaignSeeds, LegacyPackingMatchesHistoricalFormula) {
  // The legacy path must stay bit-for-bit the PR 2 formula — it is what
  // every existing journal's seeds were derived with.
  for (const std::uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
    for (const std::size_t point : {std::size_t{0}, std::size_t{3},
                                    std::size_t{1023}}) {
      for (const int replica : {0, 1, 63}) {
        EXPECT_EQ(
            campaign::replica_seed(seed, campaign::SeedPacking::kLegacy,
                                   point, replica),
            Rng::derive_seed(seed, point * campaign::kReplicaStride +
                                       static_cast<std::uint64_t>(replica)));
      }
    }
  }
}

TEST(CampaignSeeds, LegacyPackingAliasesAtScaleWideDoesNot) {
  using campaign::SeedPacking;
  const std::uint64_t seed = 1;
  // point * 2^20 wraps mod 2^64 at point = 2^44: the legacy index of
  // (2^44, r) collides with (0, r) exactly — silent cross-point seed
  // aliasing at 32x32-scale campaign sizes. (2^44 points is beyond any
  // realistic grid, but smaller wraps alias interior points the same
  // way; the gate routes every such campaign to the wide packing.)
  const std::size_t wrap = std::size_t{1} << 44;
  EXPECT_EQ(campaign::replica_seed(seed, SeedPacking::kLegacy, wrap, 3),
            campaign::replica_seed(seed, SeedPacking::kLegacy, 0, 3));
  EXPECT_NE(campaign::replica_seed(seed, SeedPacking::kWide, wrap, 3),
            campaign::replica_seed(seed, SeedPacking::kWide, 0, 3));
}

TEST(CampaignSeeds, WidePackingIsCollisionFreeAcrossSample) {
  // A (necessarily statistical) injectivity check: across a sample far
  // wider than the legacy stride budget allows — points beyond 2^20,
  // replica indices beyond 2^20 — every wide seed is distinct.
  std::set<std::uint64_t> seen;
  std::size_t pairs = 0;
  for (const std::size_t point :
       {std::size_t{0}, std::size_t{1}, std::size_t{1} << 20,
        (std::size_t{1} << 20) + 1, std::size_t{1} << 44}) {
    for (const int replica : {0, 1, 2, 1 << 20, (1 << 20) + 1}) {
      seen.insert(campaign::replica_seed(1, campaign::SeedPacking::kWide,
                                         point, replica));
      ++pairs;
    }
  }
  EXPECT_EQ(seen.size(), pairs);
}

}  // namespace
}  // namespace ftnoc
