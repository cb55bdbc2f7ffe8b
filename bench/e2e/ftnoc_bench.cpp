// ftnoc_bench: end-to-end benchmark harness (see README.md beside this file).
//
//   ftnoc_bench --workload=NAME [--seed=S] [--seconds=T] [--trace=FILE]
//               [--smoke]
//
// Runs one workload single-threaded in this process: one untimed warm-up
// pass, then timed passes until T seconds have elapsed (and at least
// kMinPasses of them), then, with --trace, one traced pass whose spans are
// written to FILE at exit. Each layer is timed from outside, around calls
// into its public functions. Prints one JSON object on stdout: end-to-end
// metrics as medians over the timed passes (with min, max and n),
// per-layer metrics from the traced pass, and the operation counts of the
// correctness checks.
//
// The workloads are spelled out here as override strings, never through
// sweep::preset_points, so an edit to a preset cannot silently change what
// two builds of the benchmark run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "ecc/hamming.hpp"
#include "noc/simulator.hpp"
#include "power/energy_model.hpp"
#include "sweep/jsonl.hpp"

namespace {

using namespace ftnoc;
using power::EnergyEvent;

constexpr const char* kUsage =
    "usage: ftnoc_bench --workload=NAME [--seed=S] [--seconds=T]\n"
    "                   [--trace=FILE] [--smoke]\n"
    "  --workload=NAME  paper_8x8 | fabric_32x32 | storm_drain_8x8 |\n"
    "                   campaign_fig05_4x4\n"
    "  --seed=S         workload seed (default 1; 2 is the held-out seed)\n"
    "  --seconds=T      add timed passes until T seconds elapsed (default 0:\n"
    "                   the minimum of 3 passes)\n"
    "  --trace=FILE     run one traced pass after the timed ones and write\n"
    "                   its spans to FILE (JSON lines)\n"
    "  --smoke          1/20 of the message budget, one timed pass\n";

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ftnoc_bench: %s\n", msg.c_str());
  std::exit(2);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads -------------------------------------------------------------

struct PointSpec {
  std::string label;
  SimConfig cfg;
};

struct Workload {
  std::vector<PointSpec> points;
  /// > 0 for the campaign workload: quota replicas per point, journaled.
  int replicas = 0;
};

PointSpec make_point(std::string label, std::vector<std::string> overrides,
                     const std::vector<std::string>& extra) {
  overrides.insert(overrides.end(), extra.begin(), extra.end());
  PointSpec pt{std::move(label), SimConfig{}};
  if (auto err = apply_overrides(pt.cfg, overrides)) die(*err);
  return pt;
}

/// "total_messages=N" and "warmup_messages=W", cut to 1/20 for --smoke.
std::vector<std::string> budget(std::uint64_t total, std::uint64_t warmup,
                                bool smoke) {
  const std::uint64_t div = smoke ? 20 : 1;
  return {"total_messages=" + std::to_string(total / div),
          "warmup_messages=" + std::to_string(warmup / div)};
}

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// The paper's platform (§2.2): 8x8 mesh at injection 0.25. Dense traffic,
// about 1.5 crossbar traversals per router-cycle, so per-flit router-phase
// work (RT/VA/SA/ST, ECC, retransmission) dominates and network
// construction is about 0.1% of wall time. The adaptive V=2 point runs
// at 0.20 with early probing: at 0.25 it is past saturation and wedges
// until max_cycles on about one seed in four.
Workload paper_8x8(bool smoke) {
  const auto base =
      concat({"mesh_width=8", "mesh_height=8", "injection_rate=0.25",
              "max_cycles=300000"},
             budget(20'000, 5'000, smoke));
  Workload w;
  w.points = {
      make_point("paper/HBH", base, {"protection=hbh", "link_error_rate=1e-3"}),
      make_point("paper/FEC", base, {"protection=fec", "link_error_rate=1e-3"}),
      make_point("paper/E2E", base, {"protection=e2e", "link_error_rate=1e-3"}),
      make_point("paper/AD-recovery", base,
                 {"routing=adaptive", "num_vcs=2", "deadlock_recovery=1",
                  "probe_threshold=16", "probe_backoff=9",
                  "injection_rate=0.20"}),
      make_point("paper/4-stage", base,
                 {"protection=hbh", "pipeline_stages=4",
                  "retransmission_depth=4", "link_error_rate=1e-3"}),
  };
  return w;
}

// The scale workload: 1024 routers at light load, about half a crossbar
// traversal per router-cycle against 1.5 on paper_8x8, so the event kernel
// leaves many routers unstepped each cycle. Step time splits about evenly
// between per-hop work and fixed per-cycle cost; construction stays under
// 1% of wall time.
Workload fabric_32x32(bool smoke) {
  const auto base = concat({"mesh_width=32", "mesh_height=32",
                            "max_cycles=200000"},
                           budget(6'000, 1'500, smoke));
  std::vector<std::string> dead = {"routing=adaptive", "adaptive_faults=1",
                                   "deadlock_recovery=1",
                                   "injection_rate=0.02"};
  // The fault_degradation stagger: East cut at column 1 + j % 30, row j.
  for (int j = 0; j < 8; ++j) {
    dead.push_back("dead_link=" + std::to_string(j * 32 + 1 + j % 30) + ":E");
  }
  Workload w;
  w.points = {
      make_point("fabric/mesh-HBH", base,
                 {"protection=hbh", "link_error_rate=1e-4",
                  "injection_rate=0.02"}),
      make_point("fabric/torus-HBH", base,
                 {"torus=1", "protection=hbh", "link_error_rate=1e-4",
                  "injection_rate=0.05"}),
      make_point("fabric/mesh-AD-deadlinks", base, dead),
  };
  return w;
}

/// A sparse form of the workload_hotspot text for an 8x8 mesh: every node
/// sends a 16-flit burst at the central node every 2000 cycles, over an
/// all-to-all exchange at the start. The central node ejects a wave in
/// about 1000 cycles, so the mesh drains and idles before the next one.
std::string hotspot_text(int bursts) {
  return "packet_flits 4\n"
         "many_to_one memstream start=0 dest=36 flits=16 count=" +
         std::to_string(bursts) +
         " period=2000 stagger=7\n"
         "all_to_all exchange start=300 flits=4 stagger=3\n";
}

// The fault-tolerance path: pure workload replay run to drain while links
// die mid-run. It exercises route-epoch rebuilds, escape routing, deadlock
// probes and recovery, trace release and per-link stats, which the other
// workloads bypass. Its waves leave about a third of the cycles with no
// flit moving, so it is also the one workload with network-wide idle
// cycles.
Workload storm_drain_8x8(bool smoke) {
  const std::vector<std::string> base = {
      "mesh_width=8",      "mesh_height=8",       "injection_rate=0",
      "link_stats=1",      "run_to_drain=1",      "routing=adaptive",
      "adaptive_faults=1", "deadlock_recovery=1", "probe_threshold=32",
      "probe_backoff=17",  "warmup_messages=0",   "total_messages=10000",
      "max_cycles=200000"};
  Workload w;
  for (const int k : {0, 2, 4, 6}) {
    std::vector<std::string> kills;
    // One kill every 250 cycles from cycle 250, at the non-partitioning
    // stagger sites (East cut at column 1 + j % 6, row j % 8).
    for (int j = 0; j < k; ++j) {
      kills.push_back("storm_kill=" + std::to_string(250 + 250 * j) + ":" +
                      std::to_string((j % 8) * 8 + 1 + j % 6) + ":E");
    }
    PointSpec pt =
        make_point("storm/k=" + std::to_string(k), base, kills);
    pt.cfg.workload_text = hotspot_text(smoke ? 1 : 8);
    w.points.push_back(std::move(pt));
  }
  return w;
}

// The users' main workflow: the Fig. 5 grid as a quota campaign of many
// small networks (fixed per-run costs count), journaled, then reloaded and
// replayed.
Workload campaign_fig05_4x4(bool smoke) {
  const auto base =
      concat({"mesh_width=4", "mesh_height=4", "injection_rate=0.25",
              "max_cycles=200000"},
             smoke ? std::vector<std::string>{"total_messages=200",
                                              "warmup_messages=50"}
                   : budget(1'000, 250, false));
  Workload w;
  w.replicas = smoke ? 2 : 8;
  for (const char* scheme : {"hbh", "e2e", "fec"}) {
    for (const char* rate : {"1e-5", "1e-4", "1e-3", "1e-2", "1e-1"}) {
      // Pure techniques, as in Fig. 5: the retransmission schemes resend
      // on any detected error; FEC corrects what it can.
      const bool detect_only = std::strcmp(scheme, "fec") != 0;
      w.points.push_back(make_point(
          std::string("fig05/") + scheme + "/err=" + rate, base,
          {std::string("protection=") + scheme,
           std::string("link_error_rate=") + rate,
           detect_only ? "ecc_detect_only=1" : "ecc_detect_only=0"}));
    }
  }
  return w;
}

Workload make_workload(const std::string& name, bool smoke) {
  if (name == "paper_8x8") return paper_8x8(smoke);
  if (name == "fabric_32x32") return fabric_32x32(smoke);
  if (name == "storm_drain_8x8") return storm_drain_8x8(smoke);
  if (name == "campaign_fig05_4x4") return campaign_fig05_4x4(smoke);
  die("unknown workload: " + name + "\n" + kUsage);
}

// --- Tracing ----------------------------------------------------------------

/// Spans kept in memory and written out at exit (choosing-metrics §4).
class Tracer {
 public:
  /// 40 bytes: one is appended per simulated cycle.
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    const std::string* label;  ///< Point label (run spans), else null.
    std::int32_t parent;
    std::uint32_t flit_hops;   ///< Crossbar traversals (noc.step spans).
  };

  int open(const char* name, int parent, std::int64_t start,
           const std::string* label = nullptr) {
    spans_.push_back({name, start, start, label, parent, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::int64_t end) { spans_[id].end_ns = end; }
  void add(const char* name, int parent, std::int64_t start,
           std::int64_t end, std::uint32_t hops = 0) {
    spans_.push_back({name, start, end, nullptr, parent, hops});
  }

  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld",
                   i, s.parent, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
      if (std::strcmp(s.name, "noc.step") == 0) {
        std::fprintf(f, ",\"flit_hops\":%u", s.flit_hops);
      }
      if (s.label != nullptr) {
        std::fprintf(f, ",\"label\":\"%s\"", s.label->c_str());
      }
      std::fputs("}\n", f);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// --- The benchmark ------------------------------------------------------------

/// One simulation: a sweep point, or one replica of a campaign point.
struct Run {
  std::size_t point = 0;
  int replica = 0;
  SimConfig cfg;  ///< With the seed this run simulates under.
};

/// Host time of one pass, split by layer (nanoseconds).
struct PassTimes {
  std::int64_t wall = 0;
  std::int64_t setup = 0;
  std::int64_t run = 0;
  std::int64_t emit = 0;
  std::int64_t journal_write = 0;
  std::int64_t journal_load = 0;
  std::int64_t replay = 0;
  std::int64_t teardown = 0;
  /// The harness's own work in the traced pass (bench.* spans).
  std::int64_t harness = 0;
};

/// What the traced pass measures beyond PassTimes and the spans.
struct TraceStats {
  std::uint64_t counts[power::kNumEnergyEvents] = {};  ///< Whole-run.
  std::uint64_t routers = 0;      ///< Routers constructed (summed per run).
  std::uint64_t journal_lines = 0;
  /// traced / untraced host time of each chunk the traced network and its
  /// twin stepped over the same cycles.
  std::vector<double> chunk_ratio;
};

/// Cycles the traced network and its untraced twin step in turn.
constexpr Cycle kTwinChunk = 64;

/// Timed passes run even when --seconds is shorter: the fewest whose median
/// sets aside one outlying pass on either side.
constexpr int kMinPasses = 3;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, std::string journal_path)
      : w_(std::move(w)), seed_(seed), journal_path_(std::move(journal_path)) {
    if (campaign()) {
      const auto packing = campaign::seed_packing(w_.points.size(),
                                                  w_.replicas);
      for (std::size_t p = 0; p < w_.points.size(); ++p) {
        hashes_.push_back(campaign::config_hash(w_.points[p].cfg));
        sweep_points_.push_back({w_.points[p].label, w_.points[p].cfg});
        for (int r = 0; r < w_.replicas; ++r) {
          Run run{p, r, w_.points[p].cfg};
          run.cfg.seed = campaign::replica_seed(seed_, packing, p, r);
          runs_.push_back(std::move(run));
        }
      }
    } else {
      for (std::size_t i = 0; i < w_.points.size(); ++i) {
        Run run{i, 0, w_.points[i].cfg};
        run.cfg.seed = Rng::derive_seed(seed_, i);
        runs_.push_back(std::move(run));
      }
    }
    for (const Run& run : runs_) {
      if (auto err = run.cfg.validate()) {
        die("invalid point " + label(run) + ": " + *err);
      }
    }
  }

  bool campaign() const { return w_.replicas > 0; }
  std::size_t num_runs() const { return runs_.size(); }

  /// An untimed pass that records the reference every later pass is
  /// checked against: JSONL bytes, results, cycle counts, state digests.
  void reference_pass() {
    ref_results_.resize(runs_.size());
    ref_digests_.resize(runs_.size());
    ref_lines_.resize(runs_.size());
    pass(nullptr, nullptr, /*reference=*/true);
  }

  PassTimes timed_pass() { return pass(nullptr, nullptr, false); }

  PassTimes traced_pass(Tracer& tr, TraceStats& ts) {
    // Reserved up front so that no vector growth lands inside a step span.
    // Each run adds one noc.step span per cycle, one bench.untraced_steps
    // span and one chunk ratio per twin chunk, and at most 9 others (the
    // twin's setup and teardown, run, noc.run, noc.setup, emission, journal
    // write, check and teardown); the pass adds its root and the campaign's
    // journal write, load and replay.
    std::size_t spans = 4;
    std::size_t chunks = 0;
    for (const SimResults& r : ref_results_) {
      const std::size_t c = (r.cycles + kTwinChunk - 1) / kTwinChunk;
      spans += r.cycles + c + 9;
      chunks += c;
    }
    tr.reserve(spans);
    ts.chunk_ratio.reserve(chunks);
    const PassTimes t = pass(&tr, &ts, false);
    op("trace reservation",
       tr.spans().size() <= spans && ts.chunk_ratio.size() <= chunks
           ? ""
           : "spans or chunk ratios outgrew their reservation");
    return t;
  }

  const std::vector<SimResults>& results() const { return ref_results_; }
  const std::string& ref_bytes() const { return ref_bytes_; }

  /// Geometric mean over the workload's points of each point's mean per
  /// measured message, `per_msg` picking the value. Every protection scheme
  /// and error rate weighs the same, however slow its messages: a mean over
  /// all messages would follow the slowest point alone.
  double point_geomean(double (*per_msg)(const SimResults&)) const {
    std::vector<double> sum(w_.points.size());
    std::vector<double> msgs(w_.points.size());
    for (std::size_t k = 0; k < runs_.size(); ++k) {
      const SimResults& r = ref_results_[k];
      const auto m = static_cast<double>(r.measured_messages);
      sum[runs_[k].point] += per_msg(r) * m;
      msgs[runs_[k].point] += m;
    }
    double log_sum = 0;
    for (std::size_t p = 0; p < sum.size(); ++p) {
      log_sum += std::log(sum[p] / msgs[p]);
    }
    return std::exp(log_sum / static_cast<double>(sum.size()));
  }

  std::uint64_t router_cycles() const {
    std::uint64_t rc = 0;
    for (std::size_t k = 0; k < runs_.size(); ++k) {
      rc += ref_results_[k].cycles *
            static_cast<std::uint64_t>(runs_[k].cfg.num_nodes());
    }
    return rc;
  }

  std::uint64_t ops() const { return ops_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Counts one checked operation; `error` non-empty marks it failed.
  void op(const std::string& what, const std::string& error) {
    ++ops_;
    if (!error.empty()) failures_.push_back(what + ": " + error);
  }

 private:
  const std::string& label(const Run& run) const {
    return w_.points[run.point].label;
  }

  std::string emit(const Run& run, const SimResults& r) const {
    if (campaign()) {
      return campaign::replica_line(seed_, run.point, run.replica,
                                    hashes_[run.point], run.cfg.seed, r);
    }
    sweep::PointResult pr;
    pr.index = run.point;
    pr.label = label(run);
    pr.config = run.cfg;
    pr.results = r;
    return sweep::to_jsonl(pr);
  }

  static std::string check_results(const Run& run, const SimResults& r) {
    if (!r.completed) return "run did not complete";
    if (run.cfg.run_to_drain && run.cfg.has_workload() &&
        r.packets_created != r.messages_ejected + r.unreachable_drops) {
      return "drain ledger: created " + std::to_string(r.packets_created) +
             " != ejected " + std::to_string(r.messages_ejected) +
             " + unreachable " + std::to_string(r.unreachable_drops);
    }
    return {};
  }

  /// Steps the network the way Simulator::run does (same warm-up boundary,
  /// through the public stats()/meter() calls) to exactly the reference
  /// run's cycle count, one noc.step span per Network::step. An untraced
  /// twin of the same run steps in alternating chunks of kTwinChunk cycles,
  /// so trace.overhead_frac compares the same cycles stepped a moment
  /// apart: host speed drifts by more than the overhead between passes.
  void traced_steps(Simulator& sim, Simulator& twin, std::size_t k, Tracer& tr,
                    int parent, TraceStats& ts, PassTimes& t) {
    const SimConfig& cfg = runs_[k].cfg;
    const Cycle target = ref_results_[k].cycles;
    Network& net = sim.network();
    Network& other = twin.network();
    power::EnergyMeter& meter = net.meter();
    std::uint64_t before_reset[power::kNumEnergyEvents] = {};
    bool warmed = cfg.warmup_messages == 0;
    bool twin_warmed = warmed;
    if (warmed) {
      for (Network* n : {&net, &other}) {
        n->stats().begin_measurement(0);
        n->meter().reset();
      }
    }
    // Each steps its network to `until` and returns the host ns it took.
    const auto untraced_chunk = [&](Cycle until) {
      const std::int64_t u0 = now_ns();
      while (other.now() < until) {
        other.step();
        if (!twin_warmed &&
            other.stats().messages_ejected() >= cfg.warmup_messages) {
          twin_warmed = true;
          other.stats().begin_measurement(other.now());
          other.meter().reset();
        }
      }
      const std::int64_t u1 = now_ns();
      tr.add("bench.untraced_steps", parent, u0, u1);
      t.harness += u1 - u0;
      return u1 - u0;
    };
    const auto traced_chunk = [&](Cycle until) {
      const std::int64_t start = now_ns();
      std::int64_t t0 = start;
      while (net.now() < until) {
        const std::uint64_t hops0 =
            meter.count(EnergyEvent::kCrossbarTraversal);
        net.step();
        const auto hops = static_cast<std::uint32_t>(
            meter.count(EnergyEvent::kCrossbarTraversal) - hops0);
        if (!warmed && net.stats().messages_ejected() >= cfg.warmup_messages) {
          warmed = true;
          net.stats().begin_measurement(net.now());
          for (int e = 0; e < power::kNumEnergyEvents; ++e) {
            before_reset[e] = meter.count(static_cast<EnergyEvent>(e));
          }
          meter.reset();
        }
        const std::int64_t t1 = now_ns();
        tr.add("noc.step", parent, t0, t1, hops);
        t0 = t1;
      }
      return t0 - start;
    };
    // The two alternate which goes first, so that neither gains from order.
    for (int c = 0; net.now() < target; ++c) {
      const Cycle until = std::min<Cycle>(target, net.now() + kTwinChunk);
      std::int64_t untraced = 0;
      std::int64_t traced = 0;
      if (c % 2 == 0) {
        untraced = untraced_chunk(until);
        traced = traced_chunk(until);
      } else {
        traced = traced_chunk(until);
        untraced = untraced_chunk(until);
      }
      ts.chunk_ratio.push_back(static_cast<double>(traced) /
                               static_cast<double>(untraced));
    }
    for (int e = 0; e < power::kNumEnergyEvents; ++e) {
      ts.counts[e] += before_reset[e] + meter.count(static_cast<EnergyEvent>(e));
    }
  }

  /// One pass over every run. Untraced passes call Simulator::run; the
  /// traced pass steps the network itself (traced_steps) and emits the
  /// reference pass's results (the emission work is the same).
  PassTimes pass(Tracer* tr, TraceStats* ts, bool reference) {
    PassTimes t;
    const std::int64_t pass_start = now_ns();
    const int root = tr ? tr->open("pass", -1, pass_start) : -1;
    std::FILE* jf = nullptr;
    if (campaign()) {
      jf = std::fopen(journal_path_.c_str(), "w");
      if (jf == nullptr) die("cannot open " + journal_path_);
    }
    std::string bytes;
    std::vector<campaign::PointAggregate> wave(w_.points.size());

    for (std::size_t k = 0; k < runs_.size(); ++k) {
      const Run& run = runs_[k];
      std::optional<Simulator> twin;
      if (tr) {
        const std::int64_t u0 = now_ns();
        twin.emplace(run.cfg);
        const std::int64_t u1 = now_ns();
        tr->add("bench.twin_setup", root, u0, u1);
        t.harness += u1 - u0;
      }
      const std::int64_t t0 = now_ns();
      const int run_span = tr ? tr->open("run", root, t0, &label(run)) : -1;
      std::optional<Simulator> sim;
      sim.emplace(run.cfg);
      const std::int64_t t1 = now_ns();
      SimResults fresh;
      if (tr) {
        const int steps = tr->open("noc.run", run_span, t1);
        traced_steps(*sim, *twin, k, *tr, steps, *ts, t);
        tr->close(steps, now_ns());
      } else {
        fresh = sim->run();
      }
      const std::int64_t t2 = now_ns();
      const SimResults& r = tr ? ref_results_[k] : fresh;
      std::string line = emit(run, r);
      const std::int64_t t3 = now_ns();
      std::int64_t t4 = t3;
      if (jf != nullptr) {
        std::fprintf(jf, "%s\n", line.c_str());
        std::fflush(jf);
        t4 = now_ns();
        wave[run.point].add_replica(r);
      }
      t.setup += t1 - t0;
      t.run += t2 - t1;
      t.emit += t3 - t2;
      t.journal_write += t4 - t3;
      if (tr) {
        tr->add("noc.setup", run_span, t0, t1);
        tr->add(campaign() ? "campaign.replica_line" : "sweep.emit",
                run_span, t2, t3);
        if (jf != nullptr) tr->add("campaign.journal_write", run_span, t3, t4);
        tr->close(run_span, t4);
        ts->routers += static_cast<std::uint64_t>(run.cfg.num_nodes());
      }

      // Checks, outside the layer timings.
      const std::int64_t c0 = now_ns();
      const std::string what = "run " + label(run) + " replica " +
                               std::to_string(run.replica);
      std::string error;
      if (tr) {
        const std::uint64_t digest = sim->network().state_digest();
        if (sim->network().now() != r.cycles) {
          error = "traced pass stopped at a different cycle";
        } else if (digest != ref_digests_[k]) {
          error = "traced state_digest differs from the untraced run";
        }
      } else {
        error = check_results(run, r);
        if (reference) {
          ref_results_[k] = r;
          ref_digests_[k] = sim->network().state_digest();
        }
      }
      if (reference) {
        ref_lines_[k] = line;
      } else if (error.empty() && line != ref_lines_[k]) {
        error = "JSONL bytes differ from the reference pass";
      }
      bytes += line;
      bytes += '\n';
      op(what, error);
      const std::int64_t t5 = now_ns();
      sim.reset();
      const std::int64_t t6 = now_ns();
      t.teardown += t6 - t5;
      if (tr) {
        twin.reset();
        const std::int64_t t7 = now_ns();
        tr->add("bench.check", root, c0, t5);
        tr->add("noc.teardown", root, t5, t6);
        tr->add("bench.twin_teardown", root, t6, t7);
        t.harness += (t5 - c0) + (t7 - t6);
      }
    }

    if (jf != nullptr) {
      finish_campaign(jf, wave, bytes, t, tr, root, ts, reference);
    }
    if (reference) ref_bytes_ = bytes;
    t.wall = now_ns() - pass_start;
    if (tr) tr->close(root, pass_start + t.wall);
    return t;
  }

  /// Appends the per-point aggregate records (the journal order of a
  /// one-wave quota campaign), then reloads the journal with Journal::load
  /// and replays it through CampaignEngine::run, which must re-emit the
  /// journal on disk byte for byte.
  void finish_campaign(std::FILE* jf,
                       const std::vector<campaign::PointAggregate>& wave,
                       std::string& bytes, PassTimes& t, Tracer* tr, int root,
                       TraceStats* ts, bool reference) {
    const std::int64_t a0 = now_ns();
    const std::size_t point_lines_begin = bytes.size();
    for (std::size_t p = 0; p < w_.points.size(); ++p) {
      campaign::PointAggregate agg;
      agg.point = p;
      agg.label = w_.points[p].label;
      agg.config_hash = hashes_[p];
      agg.merge(wave[p]);
      const std::string line = campaign::aggregate_line(agg, seed_);
      std::fprintf(jf, "%s\n", line.c_str());
      std::fflush(jf);
      bytes += line;
      bytes += '\n';
    }
    const bool closed = std::fclose(jf) == 0;
    const std::int64_t a1 = now_ns();
    t.journal_write += a1 - a0;

    const campaign::Journal journal =
        campaign::Journal::load(journal_path_, seed_, hashes_);
    const std::int64_t a2 = now_ns();
    t.journal_load = a2 - a1;

    const std::size_t expect_lines = runs_.size() + w_.points.size();
    std::size_t replayed = 0;
    std::size_t replay_mismatch = 0;
    std::size_t cursor = 0;
    campaign::CampaignOptions opts;
    opts.num_threads = 1;
    opts.campaign_seed = seed_;
    opts.stop.min_replicas = w_.replicas;
    opts.stop.max_replicas = w_.replicas;
    opts.stop.wave = w_.replicas;
    campaign::CampaignEngine engine(opts);
    engine.run(sweep_points_, &journal, [&](const std::string& line) {
      ++replayed;
      const std::size_t end = bytes.find('\n', cursor);
      if (end == std::string::npos ||
          bytes.compare(cursor, end - cursor, line) != 0) {
        ++replay_mismatch;
      }
      cursor = end == std::string::npos ? bytes.size() : end + 1;
    });
    const std::int64_t a3 = now_ns();
    t.replay = a3 - a2;
    if (tr) {
      tr->add("campaign.journal_write", root, a0, a1);
      tr->add("campaign.journal_load", root, a1, a2);
      tr->add("campaign.replay", root, a2, a3);
      ts->journal_lines = expect_lines;
    }

    // The journal op: aggregate records, the file on disk, and the load.
    std::string error;
    if (!closed) {
      error = "journal write failed";
    } else if (read_file(journal_path_) != bytes) {
      error = "journal on disk differs from the lines written";
    } else if (journal.valid_lines() != expect_lines ||
               journal.replica_count() != runs_.size() ||
               !journal.mismatch().empty()) {
      error = "Journal::load kept " + std::to_string(journal.valid_lines()) +
              " of " + std::to_string(expect_lines) + " lines" +
              (journal.mismatch().empty() ? "" : ": " + journal.mismatch());
    } else if (reference) {
      ref_point_lines_ = bytes.substr(point_lines_begin);
    } else if (bytes.compare(point_lines_begin, std::string::npos,
                             ref_point_lines_) != 0) {
      error = "aggregate records differ from the reference pass";
    }
    op("campaign journal", error);
    op("campaign replay",
       replayed == expect_lines && replay_mismatch == 0
           ? ""
           : std::to_string(replay_mismatch) + " of " +
                 std::to_string(replayed) +
                 " replayed lines differ from the journal on disk");
  }

  static std::string read_file(const std::string& path) {
    std::string s;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return s;
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) s.append(buf, n);
    std::fclose(f);
    return s;
  }

  Workload w_;
  std::uint64_t seed_;
  std::string journal_path_;
  std::vector<Run> runs_;
  std::vector<std::uint64_t> hashes_;
  std::vector<sweep::SweepPoint> sweep_points_;

  std::vector<SimResults> ref_results_;
  std::vector<std::uint64_t> ref_digests_;
  std::vector<std::string> ref_lines_;
  std::string ref_point_lines_;
  std::string ref_bytes_;  ///< The whole reference pass, for sim_digest.

  std::uint64_t ops_ = 0;
  std::vector<std::string> failures_;
};

/// Host ns of one SEC/DED encode + decode pair (every other codeword
/// carries a single-bit error), over a loop of at least `min_seconds`.
double ecc_pair_ns(std::uint64_t seed, double min_seconds, bool& ok) {
  Rng rng(seed);
  std::uint64_t pairs = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t data = rng.next_u64();
      ecc::Codeword cw = ecc::encode(data);
      if (i & 1) cw.flip(i % ecc::kCodewordBits);
      const ecc::DecodeResult r = ecc::decode(cw);
      const auto want = (i & 1) ? ecc::DecodeStatus::kCorrected
                                : ecc::DecodeStatus::kClean;
      ok = ok && r.status == want && r.data == data;
    }
    pairs += 4096;
    elapsed = now_ns() - t0;
  } while (static_cast<double>(elapsed) < min_seconds * 1e9);
  return static_cast<double>(elapsed) / static_cast<double>(pairs);
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::vector<double> samples;  ///< Per-pass values (end-to-end metrics).
};

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample (copied).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

Metric per_pass(const char* name, const char* unit, std::vector<double> v) {
  Metric m{name, median(v), unit, std::move(v)};
  return m;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void append_metrics(std::string& out, const char* key,
                    const std::vector<Metric>& metrics) {
  out += ",\"";
  out += key;
  out += "\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ',';
    out += quoted(m.name) + ":{\"value\":" + num(m.value) +
           ",\"unit\":" + quoted(m.unit);
    if (!m.samples.empty()) {
      out += ",\"min\":" +
             num(*std::min_element(m.samples.begin(), m.samples.end())) +
             ",\"max\":" +
             num(*std::max_element(m.samples.begin(), m.samples.end())) +
             ",\"n\":" + std::to_string(m.samples.size());
    }
    out += '}';
  }
  out += '}';
}

/// High-water resident set of this process image, from /proc/self/status.
/// getrusage's ru_maxrss is not used: Linux carries it across execve, so it
/// would report the launching process's peak when that was larger.
double peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::numeric_limits<double>::quiet_NaN();
  char line[256];
  double kb = std::numeric_limits<double>::quiet_NaN();
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb;
}

bool flag_value(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_path;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string v;
    if (flag_value(arg, "--workload", v)) {
      workload_name = v;
    } else if (flag_value(arg, "--seed", v)) {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag_value(arg, "--seconds", v)) {
      seconds = std::atof(v.c_str());
    } else if (flag_value(arg, "--trace", v)) {
      trace_path = v;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      die(std::string("unknown argument: ") + arg + "\n" + kUsage);
    }
  }
  if (workload_name.empty()) die(std::string("--workload is required\n") + kUsage);
  const int min_passes = smoke ? 1 : kMinPasses;
  if (smoke) seconds = 0.0;

  // The campaign journal is written to (and removed from) the working
  // directory.
  const std::string journal_path = workload_name + ".bench.journal";
  Bench bench(make_workload(workload_name, smoke), seed, journal_path);

  bench.reference_pass();
  std::vector<PassTimes> passes;
  std::int64_t timed = 0;
  while (static_cast<int>(passes.size()) < min_passes ||
         static_cast<double>(timed) < seconds * 1e9) {
    passes.push_back(bench.timed_pass());
    timed += passes.back().wall;
  }
  const double peak_rss_mb = peak_rss_kb() / 1024.0;

  // --- End-to-end metrics: medians over the timed passes. -------------------
  const double router_cycles = static_cast<double>(bench.router_cycles());
  std::vector<double> wall, setup, ns_rc;
  for (const PassTimes& p : passes) {
    wall.push_back(static_cast<double>(p.wall) * 1e-9);
    setup.push_back(static_cast<double>(p.setup) * 1e-9);
    ns_rc.push_back(static_cast<double>(p.run) / router_cycles);
  }
  double created = 0, ejected = 0;
  for (const SimResults& r : bench.results()) {
    created += static_cast<double>(r.packets_created);
    ejected += static_cast<double>(r.messages_ejected);
  }
  std::vector<Metric> e2e = {
      per_pass("wall_s", "s", wall),
      per_pass("setup_s", "s", setup),
      per_pass("ns_per_router_cycle", "ns", ns_rc),
      {"peak_rss_mb", peak_rss_mb, "MB", {}},
      {"sim_latency_avg_cycles",
       bench.point_geomean(
           [](const SimResults& r) { return r.avg_latency_cycles; }),
       "cycles", {}},
      {"sim_energy_per_msg_nj",
       bench.point_geomean(
           [](const SimResults& r) { return r.energy_per_message_nj; }),
       "nJ", {}},
      {"delivered_fraction", ejected / created, "fraction", {}},
  };

  // --- Traced pass: per-layer metrics. ---------------------------------------
  std::vector<Metric> layers;
  if (!trace_path.empty()) {
    Tracer tr;
    TraceStats ts;
    const PassTimes t = bench.traced_pass(tr, ts);
    bool ecc_ok = true;
    const double ecc_ns = ecc_pair_ns(seed, smoke ? 0.05 : 0.5, ecc_ok);
    bench.op("ecc microloop", ecc_ok ? "" : "decode disagreed with encode");

    std::vector<double> step_ns;
    std::vector<double> step_hops;
    for (const Tracer::Span& sp : tr.spans()) {
      if (std::strcmp(sp.name, "noc.step") != 0) continue;
      step_ns.push_back(static_cast<double>(sp.end_ns - sp.start_ns));
      step_hops.push_back(sp.flit_hops);
    }
    double step_total = 0, hops_total = 0;
    std::size_t idle = 0;
    const std::size_t n = step_ns.size();
    for (std::size_t i = 0; i < n; ++i) {
      step_total += step_ns[i];
      hops_total += step_hops[i];
      if (step_hops[i] == 0) ++idle;
    }
    // Least squares: step ns = fixed + per_hop * crossbar traversals.
    const double mx = hops_total / static_cast<double>(n);
    const double my = step_total / static_cast<double>(n);
    double sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = step_hops[i] - mx;
      sxx += dx * dx;
      sxy += dx * (step_ns[i] - my);
    }
    const double per_hop = sxx > 0 ? sxy / sxx : 0.0;
    const auto count = [&](EnergyEvent e) {
      return static_cast<double>(ts.counts[static_cast<int>(e)]);
    };
    const double hops = count(EnergyEvent::kCrossbarTraversal);
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double recoveries = 0, rerouted = 0, storm = 0, unreachable = 0;
    for (const SimResults& r : bench.results()) {
      recoveries += static_cast<double>(r.recoveries_entered);
      rerouted += static_cast<double>(r.packets_rerouted);
      storm += static_cast<double>(r.links_storm_killed);
      unreachable += static_cast<double>(r.unreachable_drops);
    }
    // Share of the traced pass's wall time, less the harness's own bench.*
    // spans, that the layer spans account for.
    const double spans =
        static_cast<double>(t.setup + t.emit + t.journal_write +
                            t.journal_load + t.replay + t.teardown) +
        step_total;
    const auto runs = static_cast<double>(bench.num_runs());
    layers = {
        {"noc.setup.us_per_router",
         static_cast<double>(t.setup) * 1e-3 /
             static_cast<double>(ts.routers),
         "us", {}},
        {"noc.step.p50_us", quantile(step_ns, 0.50) * 1e-3, "us", {}},
        {"noc.step.p99_us", quantile(step_ns, 0.99) * 1e-3, "us", {}},
        {"noc.step.samples", static_cast<double>(n), "count", {}},
        {"noc.step.fixed_ns_per_cycle", my - per_hop * mx, "ns", {}},
        {"noc.step.ns_per_flit_hop", per_hop, "ns", {}},
        {"noc.step.flit_hops_per_s", hops_total / (step_total * 1e-9), "1/s",
         {}},
        {"noc.step.idle_cycle_frac",
         static_cast<double>(idle) / static_cast<double>(n), "fraction", {}},
        {"noc.router.flit_hops", hops, "count", {}},
        {"noc.router.va_rounds_per_header",
         ratio(count(EnergyEvent::kVcAllocation),
               count(EnergyEvent::kRouteCompute)),
         "ratio", {}},
        {"noc.router.sa_rounds_per_hop",
         ratio(count(EnergyEvent::kSwAllocation), hops), "ratio", {}},
        {"core.rtx.replays_per_hop",
         ratio(count(EnergyEvent::kRetransmission), hops), "ratio", {}},
        {"core.deadlock.probe_hops", count(EnergyEvent::kProbeHop), "count",
         {}},
        {"core.deadlock.recoveries", recoveries, "count", {}},
        {"noc.fault.packets_rerouted", rerouted, "count", {}},
        {"noc.fault.storm_kills", storm, "count", {}},
        {"noc.fault.unreachable_drops", unreachable, "count", {}},
        {"ecc.decode_ns", ecc_ns, "ns", {}},
        {"ecc.share_of_step",
         ecc_ns * count(EnergyEvent::kEccCheck) / step_total, "fraction", {}},
        {"sweep.emit_us_per_run", static_cast<double>(t.emit) * 1e-3 / runs,
         "us", {}},
        {"campaign.journal_write_us_per_line",
         ratio(static_cast<double>(t.journal_write) * 1e-3,
               static_cast<double>(ts.journal_lines)),
         "us", {}},
        {"campaign.journal_load_ms", static_cast<double>(t.journal_load) * 1e-6,
         "ms", {}},
        {"campaign.replay_ms", static_cast<double>(t.replay) * 1e-6, "ms", {}},
        {"trace.overhead_frac", median(ts.chunk_ratio) - 1.0, "fraction", {}},
        {"trace.span_coverage", spans / static_cast<double>(t.wall - t.harness),
         "fraction", {}},
    };
    if (!tr.write(trace_path)) die("cannot write " + trace_path);
  }
  std::remove(journal_path.c_str());

  std::string out = "{\"workload\":" + quoted(workload_name) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"passes\":" + std::to_string(passes.size()) +
                    ",\"ops\":" + std::to_string(bench.ops()) +
                    ",\"ops_failed\":" +
                    std::to_string(bench.failures().size()) +
                    ",\"sim_digest\":";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "\"%016llx\"",
                static_cast<unsigned long long>(fnv1a(bench.ref_bytes())));
  out += digest;
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < bench.failures().size() && i < 20; ++i) {
    if (i) out += ',';
    out += quoted(bench.failures()[i]);
  }
  out += ']';
  append_metrics(out, "end_to_end", e2e);
  append_metrics(out, "per_layer", layers);
  out += '}';
  std::puts(out.c_str());
  return bench.failures().empty() ? 0 : 1;
}
