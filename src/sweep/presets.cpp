#include "sweep/presets.hpp"

#include <algorithm>
#include <cstdio>

namespace ftnoc::sweep {

const std::vector<double>& fig_error_rates() {
  static const std::vector<double> rates = {1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
  return rates;
}

std::string rate_label(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  return buf;
}

std::vector<SweepPoint> fig05_points(const SimConfig& base) {
  struct Scheme {
    const char* name;
    LinkProtection p;
  };
  static constexpr Scheme kSchemes[] = {{"HBH", LinkProtection::kHbh},
                                        {"E2E", LinkProtection::kE2e},
                                        {"FEC", LinkProtection::kFec}};
  std::vector<SweepPoint> points;
  for (const auto& s : kSchemes) {
    for (const double rate : fig_error_rates()) {
      SweepPoint pt;
      pt.label = std::string("Fig5/") + s.name + "/err=" + rate_label(rate);
      pt.config = base;
      pt.config.injection_rate = 0.25;  // The figure's operating point.
      pt.config.protection = s.p;
      pt.config.faults.link_error_rate = rate;
      // The Figure 5 comparison pits *pure* techniques against each other:
      // the retransmission schemes (HBH, E2E) resend on any detected
      // error, while FEC corrects what it can and silently passes the
      // rest. The paper's proposed hybrid (SEC + HBH retransmission of
      // multi-bit upsets) is what Figures 6/7 sweep.
      pt.config.ecc_detect_only = s.p != LinkProtection::kFec;
      points.push_back(std::move(pt));
    }
  }
  return points;
}

std::vector<SweepPoint> abl_cthres_points(const SimConfig& base) {
  std::vector<SweepPoint> points;
  for (const Cycle cthres : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    SweepPoint pt;
    pt.label = "AblCthres/cthres=" + std::to_string(cthres);
    pt.config = base;
    pt.config.routing = RoutingAlgorithm::kMinimalAdaptive;
    pt.config.num_vcs = 2;            // Fewer VCs: more blocking pressure.
    pt.config.injection_rate = 0.28;  // Congested, just below AD saturation.
    pt.config.total_messages =
        std::min<std::uint64_t>(pt.config.total_messages, 20'000);
    pt.config.warmup_messages =
        std::min<std::uint64_t>(pt.config.warmup_messages, 5'000);
    pt.config.max_cycles = 200'000;
    pt.config.deadlock.enable_recovery = true;
    pt.config.deadlock.probe_threshold = cthres;
    pt.config.deadlock.probe_backoff = cthres / 2 + 1;
    pt.config.deadlock.probe_timeout = cthres * 2 + 64;
    points.push_back(std::move(pt));
  }
  return points;
}

namespace {

struct Pattern {
  const char* name;
  TrafficPattern p;
};
constexpr Pattern kPatterns[] = {{"NR", TrafficPattern::kUniformRandom},
                                 {"BC", TrafficPattern::kBitComplement},
                                 {"TN", TrafficPattern::kTornado}};

/// Shared grid behind Figures 6 and 7 (latency and energy columns of the
/// same runs): hybrid HBH x NR/BC/TN x the five error-rate decades.
std::vector<SweepPoint> hbh_pattern_points(const SimConfig& base,
                                           const char* figure) {
  std::vector<SweepPoint> points;
  for (const auto& pat : kPatterns) {
    for (const double rate : fig_error_rates()) {
      SweepPoint pt;
      pt.label = std::string(figure) + "/" + pat.name +
                 "/err=" + rate_label(rate);
      pt.config = base;
      pt.config.injection_rate = 0.25;
      pt.config.protection = LinkProtection::kHbh;
      pt.config.pattern = pat.p;
      pt.config.faults.link_error_rate = rate;
      points.push_back(std::move(pt));
    }
  }
  return points;
}

/// Shared grid behind Figures 8 and 9: buffer utilization vs offered load
/// for adaptive (AD) and deterministic (DT) routing. Deep-saturation
/// points are cycle-capped (they can never eject the full budget) and AD
/// pairs with deadlock recovery, as in the paper.
std::vector<SweepPoint> buf_util_points(const SimConfig& base,
                                        const char* figure) {
  struct Algo {
    const char* name;
    RoutingAlgorithm a;
  };
  static constexpr Algo kAlgos[] = {{"AD", RoutingAlgorithm::kMinimalAdaptive},
                                    {"DT", RoutingAlgorithm::kXY}};
  std::vector<SweepPoint> points;
  for (const auto& algo : kAlgos) {
    for (int i = 1; i <= 10; ++i) {
      const double rate = 0.1 * i;
      SweepPoint pt;
      pt.label = std::string(figure) + "/" + algo.name +
                 "/inj=" + rate_label(rate);
      pt.config = base;
      pt.config.routing = algo.a;
      pt.config.injection_rate = rate;
      pt.config.max_cycles = std::min<Cycle>(base.max_cycles, 60'000);
      pt.config.deadlock.enable_recovery =
          algo.a == RoutingAlgorithm::kMinimalAdaptive;
      // Early detection is protective under heavy load (DESIGN.md 4.4).
      pt.config.deadlock.probe_threshold = 16;
      pt.config.deadlock.probe_backoff = 9;
      points.push_back(std::move(pt));
    }
  }
  return points;
}

/// Shared grid behind Figures 13(a)/(b): one fault mechanism active per
/// series, swept over 1e-5..1e-2.
std::vector<SweepPoint> mechanism_points(const SimConfig& base,
                                         const char* figure) {
  enum class Mechanism { kLink, kRt, kSa };
  struct Series {
    const char* name;
    Mechanism m;
  };
  static constexpr Series kSeries[] = {{"LINK-HBH", Mechanism::kLink},
                                       {"RT-Logic", Mechanism::kRt},
                                       {"SA-Logic", Mechanism::kSa}};
  static constexpr double kRates[] = {1e-5, 1e-4, 1e-3, 1e-2};
  std::vector<SweepPoint> points;
  for (const auto& s : kSeries) {
    for (const double rate : kRates) {
      SweepPoint pt;
      pt.label =
          std::string(figure) + "/" + s.name + "/err=" + rate_label(rate);
      pt.config = base;
      pt.config.injection_rate = 0.25;
      pt.config.protection = LinkProtection::kHbh;
      switch (s.m) {
        case Mechanism::kLink:
          pt.config.faults.link_error_rate = rate;
          break;
        case Mechanism::kRt:
          pt.config.faults.rt_error_rate = rate;
          break;
        case Mechanism::kSa:
          pt.config.faults.sa_error_rate = rate;
          break;
      }
      points.push_back(std::move(pt));
    }
  }
  return points;
}

}  // namespace

std::vector<SweepPoint> fig06_points(const SimConfig& base) {
  return hbh_pattern_points(base, "Fig6");
}

std::vector<SweepPoint> fig07_points(const SimConfig& base) {
  return hbh_pattern_points(base, "Fig7");
}

std::vector<SweepPoint> fig08_points(const SimConfig& base) {
  return buf_util_points(base, "Fig8");
}

std::vector<SweepPoint> fig09_points(const SimConfig& base) {
  return buf_util_points(base, "Fig9");
}

std::vector<SweepPoint> fig13a_points(const SimConfig& base) {
  return mechanism_points(base, "Fig13a");
}

std::vector<SweepPoint> fig13b_points(const SimConfig& base) {
  return mechanism_points(base, "Fig13b");
}

namespace {

/// Shared grid behind fault_degradation and fault_degradation_16:
/// graceful-degradation curve, k = 0..kcap statically dead links under
/// adaptive routing with deadlock recovery. The k-th fault cuts the East
/// link at (x, y) = (1 + k % (W-2), row k), staggering the cut column
/// row by row so every adjacent column pair keeps an intact row edge —
/// the set never partitions any mesh with W >= 4 (validate() re-checks).
std::vector<SweepPoint> fault_degradation_grid(const SimConfig& base,
                                               const char* figure,
                                               int kcap) {
  std::vector<SweepPoint> points;
  const int w = base.mesh_width;
  const int max_k = w >= 4 ? std::min(kcap, base.mesh_height) : 0;
  for (int k = 0; k <= max_k; ++k) {
    SweepPoint pt;
    pt.label = std::string(figure) + "/k=" + std::to_string(k);
    pt.config = base;
    pt.config.routing = RoutingAlgorithm::kMinimalAdaptive;
    pt.config.injection_rate = 0.2;
    pt.config.deadlock.enable_recovery = true;
    pt.config.deadlock.probe_threshold = 32;
    pt.config.deadlock.probe_backoff = 17;
    pt.config.total_messages =
        std::min<std::uint64_t>(pt.config.total_messages, 20'000);
    pt.config.warmup_messages =
        std::min<std::uint64_t>(pt.config.warmup_messages, 5'000);
    pt.config.max_cycles = std::min<Cycle>(pt.config.max_cycles, 400'000);
    for (int j = 0; j < k; ++j) {
      const int x = 1 + j % (w - 2);
      const NodeId node = static_cast<NodeId>(j * w + x);
      pt.config.dead_links.emplace_back(node, Direction::kEast);
    }
    points.push_back(std::move(pt));
  }
  return points;
}

}  // namespace

std::vector<SweepPoint> fault_degradation_points(const SimConfig& base) {
  return fault_degradation_grid(base, "FaultDeg", 4);
}

std::vector<SweepPoint> fault_degradation_16_points(const SimConfig& base) {
  // The 256-router fabric absorbs more cuts before the delivered fraction
  // moves, so the curve sweeps twice as many kills as the 8x8 grid.
  SimConfig big = base;
  big.mesh_width = 16;
  big.mesh_height = 16;
  return fault_degradation_grid(big, "FaultDeg16", 8);
}

std::vector<SweepPoint> fault_storm_points(const SimConfig& base) {
  // Self-healing under a progressive fault storm (DESIGN.md §4.12): links
  // die on a timeline *during* the run — one kill every 250 cycles from
  // cycle 250 — instead of being dead from the start. Point k suffers the
  // first k kills of a shared schedule, so the delivered fraction
  // (messages_ejected / packets_created) read across points is a
  // degradation curve. The kill sites reuse the fault_degradation stagger
  // (East cut at column 1 + j % (W-2), row j % H), which never partitions
  // a W >= 4 mesh, so every destination stays reachable.
  std::vector<SweepPoint> points;
  const int w = base.mesh_width;
  const int h = base.mesh_height;
  const int max_k = w >= 4 ? 4 : 0;
  for (int k = 0; k <= max_k; ++k) {
    SweepPoint pt;
    pt.label = "FaultStorm/adaptive/k=" + std::to_string(k);
    pt.config = base;
    pt.config.routing = RoutingAlgorithm::kMinimalAdaptive;
    // No effect (config.hpp); set so the pinned JSONL column holds.
    pt.config.adaptive_faults = true;
    pt.config.injection_rate = 0.2;
    pt.config.deadlock.enable_recovery = true;
    pt.config.deadlock.probe_threshold = 32;
    pt.config.deadlock.probe_backoff = 17;
    pt.config.total_messages =
        std::min<std::uint64_t>(pt.config.total_messages, 20'000);
    pt.config.warmup_messages =
        std::min<std::uint64_t>(pt.config.warmup_messages, 5'000);
    pt.config.max_cycles = std::min<Cycle>(pt.config.max_cycles, 400'000);
    for (int j = 0; j < k; ++j) {
      const int x = 1 + j % (w - 2);
      SimConfig::LinkKill kill;
      kill.at = 250 + static_cast<Cycle>(j) * 250;
      kill.node = static_cast<NodeId>((j % h) * w + x);
      kill.dir = Direction::kEast;
      pt.config.storm_kills.push_back(kill);
    }
    points.push_back(std::move(pt));
  }
  return points;
}

std::vector<SweepPoint> buffer_ablation_points(const SimConfig& base) {
  // The private-VC buffers on two sub-grids: the Fig. 6 operating points
  // (error-rate decades at injection 0.25, hybrid HBH) stress retransmit
  // pressure; the Fig. 8 load sweep (cycle-capped past saturation) reads
  // the buffer utilization columns. Both pin routing=xy.
  std::vector<SweepPoint> points;
  for (const double rate : fig_error_rates()) {
    SweepPoint pt;
    pt.label = "BufAbl/private_vc/err=" + rate_label(rate);
    pt.config = base;
    pt.config.routing = RoutingAlgorithm::kXY;
    pt.config.injection_rate = 0.25;
    pt.config.protection = LinkProtection::kHbh;
    pt.config.faults.link_error_rate = rate;
    pt.config.total_messages =
        std::min<std::uint64_t>(pt.config.total_messages, 10'000);
    pt.config.warmup_messages =
        std::min<std::uint64_t>(pt.config.warmup_messages, 2'500);
    points.push_back(std::move(pt));
  }
  for (int i = 1; i <= 5; ++i) {
    const double inj = 0.2 * i;
    SweepPoint pt;
    pt.label = "BufAblLoad/private_vc/inj=" + rate_label(inj);
    pt.config = base;
    pt.config.routing = RoutingAlgorithm::kXY;
    pt.config.injection_rate = inj;
    pt.config.protection = LinkProtection::kHbh;
    pt.config.faults.link_error_rate = 1e-4;
    pt.config.total_messages =
        std::min<std::uint64_t>(pt.config.total_messages, 10'000);
    pt.config.warmup_messages =
        std::min<std::uint64_t>(pt.config.warmup_messages, 2'500);
    pt.config.max_cycles = std::min<Cycle>(base.max_cycles, 60'000);
    points.push_back(std::move(pt));
  }
  return points;
}

namespace {

/// The perf preset's hot-path variants: one point per distinct router
/// fast path.
struct PerfVariant {
  const char* name;
  void (*tweak)(SimConfig&);
};

constexpr PerfVariant kPerfVariants[] = {
      {"HBH", [](SimConfig& c) {
         c.protection = LinkProtection::kHbh;
         c.faults.link_error_rate = 1e-3;
       }},
      {"FEC", [](SimConfig& c) {
         c.protection = LinkProtection::kFec;
         c.faults.link_error_rate = 1e-3;
       }},
      {"E2E", [](SimConfig& c) {
         c.protection = LinkProtection::kE2e;
         c.faults.link_error_rate = 1e-3;
       }},
      {"AD-recovery", [](SimConfig& c) {
         c.routing = RoutingAlgorithm::kMinimalAdaptive;
         c.num_vcs = 2;
         c.deadlock.enable_recovery = true;
         c.deadlock.probe_threshold = 64;
       }},
    {"4-stage", [](SimConfig& c) {
       c.protection = LinkProtection::kHbh;
       c.pipeline_stages = 4;
       c.retransmission_depth = 4;
       c.faults.link_error_rate = 1e-3;
     }},
};

}  // namespace

std::vector<SweepPoint> perf_points(const SimConfig& base) {
  // The scale is pinned here (not taken from the base config) so the
  // digest and work pins do not depend on the caller's scale; the
  // mesh/topology knobs still follow `base`.
  std::vector<SweepPoint> points;
  for (const auto& v : kPerfVariants) {
    SweepPoint pt;
    pt.label = std::string("Perf/") + v.name;
    pt.config = base;
    pt.config.injection_rate = 0.25;
    pt.config.total_messages = 2'000;
    pt.config.warmup_messages = 500;
    pt.config.max_cycles = 300'000;
    v.tweak(pt.config);
    points.push_back(std::move(pt));
  }
  return points;
}

std::vector<SweepPoint> large_mesh_points(const SimConfig& base) {
  // Production-fabric grid (ROADMAP: scale-out). Mesh dimensions and
  // scale knobs are pinned by the preset — like `perf` — so the output
  // byte stream has a stable golden digest regardless of the caller's
  // base scale. The points cover the hot paths whose cost or behaviour
  // is topology-dependent: XY vs adaptive routing (diameter 30 on the
  // mesh), torus wrap-around channels under tornado traffic, hybrid HBH
  // retransmission at scale, and static dead links forcing detours
  // across a large fabric. One 32x32 torus point (1024 routers) rides
  // along with a reduced budget as the biggest-fabric smoke.
  std::vector<SweepPoint> points;
  const auto add = [&](const char* name, bool torus, int width,
                       std::uint64_t messages, auto tweak) {
    SweepPoint pt;
    pt.label = std::string("LargeMesh/") + name;
    pt.config = base;
    pt.config.mesh_width = width;
    pt.config.mesh_height = width;
    pt.config.torus = torus;
    pt.config.injection_rate = 0.25;
    pt.config.total_messages = messages;
    pt.config.warmup_messages = messages / 4;
    pt.config.max_cycles = 200'000;
    tweak(pt.config);
    points.push_back(std::move(pt));
  };
  add("mesh16/HBH", false, 16, 4'000, [](SimConfig& c) {
    c.protection = LinkProtection::kHbh;
    c.faults.link_error_rate = 1e-4;
  });
  add("mesh16/AD-recovery", false, 16, 4'000, [](SimConfig& c) {
    c.routing = RoutingAlgorithm::kMinimalAdaptive;
    c.num_vcs = 2;
    c.deadlock.enable_recovery = true;
    c.deadlock.probe_threshold = 64;
  });
  add("mesh16/deadlinks", false, 16, 4'000, [](SimConfig& c) {
    c.routing = RoutingAlgorithm::kMinimalAdaptive;
    c.deadlock.enable_recovery = true;
    // The fault_degradation stagger at k=4, scaled to the 16-wide mesh.
    for (int j = 0; j < 4; ++j) {
      const int x = 1 + j % 14;
      c.dead_links.emplace_back(static_cast<NodeId>(j * 16 + x),
                                Direction::kEast);
    }
  });
  add("torus16/TN", true, 16, 4'000, [](SimConfig& c) {
    c.pattern = TrafficPattern::kTornado;
    c.protection = LinkProtection::kHbh;
    c.faults.link_error_rate = 1e-4;
    // Tornado loads every ring channel with k/2 upstream injectors, so a
    // 16-ary torus sees 8x the injection rate per link: 0.05 keeps the
    // wrap channels at 40% load (the regime the 8x8 tornado study runs
    // in), and the cycle cap bounds the point if that ever drifts.
    c.injection_rate = 0.05;
    c.max_cycles = 60'000;
  });
  add("torus32/HBH", true, 32, 2'000, [](SimConfig& c) {
    c.protection = LinkProtection::kHbh;
    c.faults.link_error_rate = 1e-4;
  });
  return points;
}

namespace {

/// The shared workload behind workload_hotspot, generated for the base
/// mesh: a memory-controller hotspot (every node streams bursts at the
/// central "controller" node) over a background all-to-all collective.
/// packet_flits matches the default packet_length so Eq. (1)'s recovery
/// guarantee applies unchanged.
std::string hotspot_workload_text(int w, int h) {
  const int dest = (h / 2) * w + w / 2;
  std::string t;
  t += "packet_flits 4\n";
  t += "many_to_one memstream start=0 dest=" + std::to_string(dest) +
       " flits=32 count=6 period=200 stagger=7\n";
  t += "all_to_all exchange start=300 flits=4 stagger=3\n";
  return t;
}

}  // namespace

std::vector<SweepPoint> workload_hotspot_points(const SimConfig& base) {
  // Fault-under-real-load (DESIGN.md §4.14): the same workload replayed
  // against k = 0..4 statically dead links (the fault_degradation stagger,
  // which never partitions a W >= 4 mesh), pure trace-driven
  // (injection_rate = 0) and run to drain. link_stats is on, so each point
  // carries the per-link heatmap row showing how the hotspot's congestion
  // ridge shifts as links die. Scale knobs are pinned by the preset — the
  // workload fixes the offered traffic, so the byte stream has a stable
  // golden digest regardless of the caller's base scale; the mesh still
  // follows `base` like fault_degradation.
  std::vector<SweepPoint> points;
  const int w = base.mesh_width;
  const int h = base.mesh_height;
  const int max_k = w >= 4 ? std::min(4, h) : 0;
  for (int k = 0; k <= max_k; ++k) {
    SweepPoint pt;
    pt.label = "WorkloadHotspot/memhot/k=" + std::to_string(k);
    pt.config = base;
    pt.config.workload_text = hotspot_workload_text(w, h);
    pt.config.injection_rate = 0.0;
    pt.config.link_stats = true;
    pt.config.run_to_drain = true;
    pt.config.routing = RoutingAlgorithm::kMinimalAdaptive;
    // No effect (config.hpp); set so the pinned JSONL column holds.
    pt.config.adaptive_faults = true;
    pt.config.deadlock.enable_recovery = true;
    pt.config.deadlock.probe_threshold = 32;
    pt.config.deadlock.probe_backoff = 17;
    pt.config.warmup_messages = 0;
    pt.config.total_messages = 10'000;
    pt.config.max_cycles = 200'000;
    for (int j = 0; j < k; ++j) {
      const int x = 1 + j % (w - 2);
      pt.config.dead_links.emplace_back(static_cast<NodeId>(j * w + x),
                                        Direction::kEast);
    }
    points.push_back(std::move(pt));
  }
  return points;
}

// Every preset in display order: FTNOC_PRESET(name) is name_points().
#define FTNOC_PRESETS(FTNOC_PRESET)                                        \
  FTNOC_PRESET(fig05) FTNOC_PRESET(fig06) FTNOC_PRESET(fig07)             \
  FTNOC_PRESET(fig08) FTNOC_PRESET(fig09) FTNOC_PRESET(fig13a)            \
  FTNOC_PRESET(fig13b) FTNOC_PRESET(abl_cthres)                           \
  FTNOC_PRESET(buffer_ablation) FTNOC_PRESET(fault_degradation)           \
  FTNOC_PRESET(fault_degradation_16) FTNOC_PRESET(fault_storm)            \
  FTNOC_PRESET(large_mesh) FTNOC_PRESET(perf) FTNOC_PRESET(workload_hotspot)

const std::vector<std::string>& preset_names() {
#define FTNOC_NAME(preset) #preset,
  static const std::vector<std::string> names = {FTNOC_PRESETS(FTNOC_NAME)};
#undef FTNOC_NAME
  return names;
}

std::string preset_names_line() {
  std::string line;
  for (const auto& name : preset_names()) {
    if (!line.empty()) line += ' ';
    line += name;
  }
  return line;
}

std::vector<SweepPoint> preset_points(const std::string& name,
                                      const SimConfig& base) {
#define FTNOC_POINTS(preset) \
  if (name == #preset) return preset##_points(base);
  FTNOC_PRESETS(FTNOC_POINTS)
#undef FTNOC_POINTS
  return {};
}

}  // namespace ftnoc::sweep
