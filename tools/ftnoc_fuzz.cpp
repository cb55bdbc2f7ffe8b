// Differential fuzz harness: drives the optimized Router and the
// allocation-happy ReferenceRouter in lock-step on randomized
// configurations and compares the full architectural-state digest every
// cycle. Any divergence is a bug in one of the two implementations (or in
// the shared phase contract). The invariant monitor rides along in
// count-and-continue mode, so structural violations are findings too, and
// so are per-link forwarded/stalled counters that differ after the run.
//
// On a finding, the harness greedily minimizes the configuration (reset
// each override to its default, keep the reduction if the run still
// fails) and emits a replayable repro file of apply_override-compatible
// key=value assignments.
//
//   ftnoc_fuzz [--runs N] [--cycles N] [--seed S] [--time-budget SEC]
//              [--out FILE] [--plant NAME] [--selftest] [--replay FILE]
//
// --selftest plants a known mutation (optimized router only; the
// reference ignores mutations by construction) and exits 0 iff the
// harness detects the divergence and the emitted repro replays. This is
// the end-to-end proof that the oracle has teeth. The default plant is
// "drop_window"; `--selftest --plant route_into_dead_link` instead
// proves the permanent-fault paths are under the oracle (the optimized
// router routes fault-blind on a topology with a dead link), and
// `--selftest --plant strand_waiter` proves the link-drain waiter re-home
// path is (the optimized router strands registered deadlock waiters on a
// draining port, wedging the drain).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/invariants.hpp"
#include "noc/network.hpp"

namespace {

using ftnoc::Cycle;
using ftnoc::Network;
using ftnoc::Rng;
using ftnoc::SimConfig;

struct RunResult {
  bool failed = false;
  Cycle cycle = 0;       // First cycle the digests disagreed (if diverged).
  bool diverged = false; // Digest mismatch (vs invariant violation only).
  std::string what;
};

struct Options {
  int runs = 200;
  Cycle cycles = 1500;
  std::uint64_t seed = 1;
  double time_budget_sec = 240.0;
  std::string out = "fuzz_repro.txt";
  std::string plant;
  bool selftest = false;
  std::string replay;
};

// Runs one configuration (given as override assignments applied to a
// default SimConfig) on both router implementations in lock-step.
RunResult run_pair(const std::vector<std::string>& overrides, Cycle cycles,
                   const std::string& plant) {
  RunResult res;
  SimConfig cfg;
  if (auto err = ftnoc::apply_overrides(cfg, overrides)) {
    res.failed = true;
    res.what = "bad override: " + *err;
    return res;
  }
  cfg.check_invariants = true;
  // Per-link counters only observe, so they are always on: the run then
  // also compares both routers' forwarded and stalled link vectors.
  cfg.link_stats = true;
  if (auto err = cfg.validate()) {
    res.failed = true;
    res.what = "invalid config: " + *err;
    return res;
  }

  SimConfig opt_cfg = cfg;
  opt_cfg.use_reference_router = false;
  opt_cfg.test_mutation = plant;
  SimConfig ref_cfg = cfg;
  ref_cfg.use_reference_router = true;
  ref_cfg.test_mutation.clear();

  Network opt(opt_cfg);
  Network ref(ref_cfg);
  if (auto* m = opt.monitor()) m->set_abort_on_violation(false);
  if (auto* m = ref.monitor()) m->set_abort_on_violation(false);
  // Link counters accumulate only inside the measurement window.
  opt.stats().begin_measurement(0);
  ref.stats().begin_measurement(0);

  for (Cycle c = 0; c < cycles; ++c) {
    opt.step();
    ref.step();
    if (opt.state_digest() != ref.state_digest()) {
      res.failed = true;
      res.diverged = true;
      res.cycle = opt.now();
      res.what = "state digests diverged at cycle " +
                 std::to_string(opt.now());
      return res;
    }
  }
  const auto* om = opt.monitor();
  const auto* rm = ref.monitor();
  if (om && om->violations() > 0) {
    res.failed = true;
    res.cycle = opt.now();
    res.what = "optimized router: " + std::to_string(om->violations()) +
               " invariant violation(s); first: " + om->first_violation();
  } else if (rm && rm->violations() > 0) {
    res.failed = true;
    res.cycle = opt.now();
    res.what = "reference router: " + std::to_string(rm->violations()) +
               " invariant violation(s); first: " + rm->first_violation();
  } else if (opt.link_fwd_counts() != ref.link_fwd_counts() ||
             opt.link_stall_counts() != ref.link_stall_counts()) {
    res.failed = true;
    res.cycle = opt.now();
    res.what = "per-link forwarded/stalled counters differ";
  }
  return res;
}

// Fault-topology override keys that define the faulted mesh a finding ran
// on; the selftest asserts minimization preserves at least one of them.
bool is_fault_override(const std::string& o) {
  return o.rfind("dead_link=", 0) == 0 || o.rfind("storm_kill=", 0) == 0;
}

// Randomized configuration generation. Every knob is emitted as an
// explicit override so the repro file is self-contained; generation
// retries until validate() accepts the combination.
std::vector<std::string> random_config(Rng& rng) {
  for (;;) {
    std::vector<std::string> ov;
    auto add = [&](const std::string& k, const std::string& v) {
      ov.push_back(k + "=" + v);
    };
    add("seed", std::to_string(rng.next_u64() % 100000));
    const int w = 2 + static_cast<int>(rng.next_below(3));  // 2..4
    const int h = 2 + static_cast<int>(rng.next_below(3));  // 2..4
    add("mesh_width", std::to_string(w));
    add("mesh_height", std::to_string(h));
    if (rng.bernoulli(0.2)) add("torus", "1");
    add("num_vcs", std::to_string(2 + rng.next_below(3)));       // 2..4
    add("vc_buffer_depth", std::to_string(2 + rng.next_below(5)));  // 2..6
    add("pipeline_stages", std::to_string(1 + rng.next_below(4)));  // 1..4
    add("retransmission_depth", std::to_string(3 + rng.next_below(4)));
    add("packet_length", std::to_string(3 + rng.next_below(4)));    // 3..6
    {
      std::ostringstream r;
      r << (0.05 + 0.35 * rng.next_double());
      add("injection_rate", r.str());
    }
    static const char* kProt[] = {"none", "fec", "e2e", "hbh", "hbh"};
    add("protection", kProt[rng.next_below(5)]);
    static const char* kRoute[] = {"xy", "adaptive", "escape"};
    add("routing", kRoute[rng.next_below(3)]);
    static const char* kPat[] = {"nr", "bc", "tn"};
    add("pattern", kPat[rng.next_below(3)]);
    if (rng.bernoulli(0.6)) {
      std::ostringstream r;
      r << (0.0005 + 0.01 * rng.next_double());
      add("link_error_rate", r.str());
    }
    if (rng.bernoulli(0.25)) add("rt_error_rate", "0.001");
    if (rng.bernoulli(0.25)) add("va_error_rate", "0.001");
    if (rng.bernoulli(0.25)) add("sa_error_rate", "0.001");
    if (rng.bernoulli(0.2)) add("rtx_error_rate", "0.001");
    if (rng.bernoulli(0.2)) add("handshake_error_rate", "0.0005");
    if (rng.bernoulli(0.3)) add("tmr_handshaking", "0");
    if (rng.bernoulli(0.2)) add("ecc_detect_only", "1");
    if (rng.bernoulli(0.2)) add("duplicate_rtx_buffers", "1");
    if (rng.bernoulli(0.15)) add("enable_ac", "0");
    if (rng.bernoulli(0.5)) {
      add("deadlock_recovery", "1");
      add("probe_threshold", std::to_string(8 + rng.next_below(57)));
      add("probe_backoff", "8");
    }
    // Permanent faults: dead links walk the fault-aware routing paths
    // through the differential oracle. Partitioning and mesh-edge draws
    // are rejected by validate() below, which re-enters the redraw loop.
    const int nodes = w * h;
    if (rng.bernoulli(0.25)) {
      static const char* kDirs[] = {"N", "E", "S", "W"};
      const int k = 1 + static_cast<int>(rng.next_below(2));
      for (int j = 0; j < k; ++j) {
        add("dead_link", std::to_string(rng.next_below(
                             static_cast<std::uint64_t>(nodes))) +
                             ":" + kDirs[rng.next_below(4)]);
      }
    }
    // Fault-storm timelines: links die mid-run, walking the online
    // reconfiguration (route-epoch re-home) and drain paths under the
    // oracle. Cycles ascend (validate() requires it); partition-prone
    // draws are fine — the veto trims them at runtime identically in
    // both implementations — but mesh-edge draws are redrawn.
    if (rng.bernoulli(0.2)) {
      static const char* kDirs[] = {"N", "E", "S", "W"};
      const int k = 1 + static_cast<int>(rng.next_below(2));
      Cycle at = 100 + rng.next_below(300);
      for (int j = 0; j < k; ++j) {
        add("storm_kill",
            std::to_string(at) + ":" +
                std::to_string(
                    rng.next_below(static_cast<std::uint64_t>(nodes))) +
                ":" + kDirs[rng.next_below(4)]);
        at += 100 + rng.next_below(300);
      }
    }

    SimConfig probe;
    if (ftnoc::apply_overrides(probe, ov)) continue;
    if (probe.validate()) continue;  // Eq. (1) etc. refused; redraw.
    return ov;
  }
}

// True iff the trial run failed *the same way* as the original finding:
// same kind (divergence vs invariant violation), same cycle and same
// message. Accepting any failure is how fault-topology overrides
// (dead_link, storm_kill) used to vanish
// from minimized repros: dropping the fault override can surface an
// unrelated failure at a different cycle, the greedy pass keeps the
// smaller config, and the emitted repro no longer exercises the faulted
// mesh the fuzzer actually caught.
bool same_failure(const RunResult& trial, const RunResult& orig) {
  return trial.failed && trial.diverged == orig.diverged &&
         trial.cycle == orig.cycle && trial.what == orig.what;
}

// Greedy 1-minimization: drop each override in turn (falling back to the
// SimConfig default for that knob) and keep the smaller set whenever the
// *original* failure signature still reproduces. Matching the signature
// (not just "some failure") trades minimality for faithfulness — every
// override the final repro keeps is one the original finding needs.
std::vector<std::string> minimize(std::vector<std::string> ov,
                                  const RunResult& orig, Cycle cycles,
                                  const std::string& plant,
                                  const std::chrono::steady_clock::time_point
                                      deadline) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < ov.size(); ++i) {
      if (std::chrono::steady_clock::now() > deadline) return ov;
      std::vector<std::string> trial = ov;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      SimConfig probe;
      if (ftnoc::apply_overrides(probe, trial) || probe.validate()) continue;
      if (same_failure(run_pair(trial, cycles, plant), orig)) {
        ov = std::move(trial);
        shrunk = true;
        break;
      }
    }
  }
  return ov;
}

void write_repro(const std::string& path, const std::vector<std::string>& ov,
                 Cycle cycles, const std::string& plant,
                 const RunResult& res) {
  std::ofstream f(path);
  f << "# ftnoc_fuzz repro — replay with: ftnoc_fuzz --replay " << path
    << "\n";
  f << "# " << res.what << "\n";
  f << "cycles=" << cycles << "\n";
  if (!plant.empty()) f << "plant=" << plant << "\n";
  for (const auto& o : ov) f << o << "\n";
}

// Repro format: one key=value per line; '#' comments; the harness-level
// keys "cycles" and "plant" are consumed here, everything else goes to
// apply_override. Returns an error message naming the offending line, or
// nullopt on success.
std::optional<std::string> read_repro(const std::string& path,
                                      std::vector<std::string>& ov,
                                      Cycle& cycles, std::string& plant) {
  std::ifstream f(path);
  if (!f) return "cannot read repro file: " + path;
  std::string line;
  for (int lineno = 1; std::getline(f, line); ++lineno) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("cycles=", 0) == 0) {
      if (!ftnoc::parse_u64(line.substr(7), cycles)) {
        return path + ":" + std::to_string(lineno) +
               ": malformed cycles value: " + line;
      }
    } else if (line.rfind("plant=", 0) == 0) {
      plant = line.substr(6);
    } else {
      ov.push_back(line);
    }
  }
  return std::nullopt;
}

int fuzz_main(const Options& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(opt.time_budget_sec));
  Rng master(opt.seed);

  for (int i = 0; i < opt.runs; ++i) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::printf("time budget exhausted after %d run(s); no divergence\n",
                  i);
      return opt.selftest ? 1 : 0;
    }
    Rng rng(Rng::derive_seed(opt.seed, static_cast<std::uint64_t>(i)));
    std::vector<std::string> ov;
    if (opt.selftest && opt.plant == "route_into_dead_link") {
      // This plant's habitat: a faulted topology where the fault-blind
      // closed form differs from the fault-aware port set, so the
      // optimized router steers headers at the dead link while the
      // reference detours around it.
      ov = {"seed=" + std::to_string(1000 + i),
            "mesh_width=4",
            "mesh_height=4",
            "num_vcs=3",
            "vc_buffer_depth=4",
            "pipeline_stages=3",
            "packet_length=4",
            "injection_rate=0.25",
            "protection=hbh",
            "routing=adaptive",
            "dead_link=5:E"};
    } else if (opt.selftest && opt.plant == "strand_waiter") {
      // This plant's habitat: heavy adaptive traffic on few VCs with
      // aggressive deadlock probing (so output VCs carry registered
      // waiters) and a storm timeline that drains central links mid-run.
      // A waiter whose flits have not been absorbed must be re-homed off
      // the draining port; the plant reverts that, so the optimized
      // router's has_waiter/out_work state wedges while the reference
      // re-homes. Every override here is one the minimized repro needs.
      // The seeds start at 1002, where the plant shows at run 0 (cycle
      // 601, right after the 9:E kill), so the lane pays for one search
      // run before minimizing.
      ov = {"seed=" + std::to_string(1002 + i),
            "mesh_width=4",
            "mesh_height=4",
            "num_vcs=2",
            "injection_rate=0.4",
            "routing=adaptive",
            "deadlock_recovery=1",
            "probe_threshold=8",
            "storm_kill=200:5:E",
            "storm_kill=300:6:S",
            "storm_kill=600:9:E"};
    } else if (opt.selftest) {
      // Bias toward the planted bug's habitat: a 4-stage HBH sender with
      // real link errors (the short drop window admits a stale third
      // follower).
      ov = {"seed=" + std::to_string(1000 + i),
            "mesh_width=4",
            "mesh_height=4",
            "num_vcs=3",
            "vc_buffer_depth=4",
            "pipeline_stages=4",
            "retransmission_depth=4",
            "packet_length=4",
            "injection_rate=0.25",
            "protection=hbh",
            "link_error_rate=0.01"};
    } else {
      ov = random_config(rng);
    }
    if (std::getenv("FTNOC_FUZZ_TRACE")) {
      std::fprintf(stderr, "run %d:", i);
      for (const auto& o : ov) std::fprintf(stderr, " %s", o.c_str());
      std::fprintf(stderr, "\n");
    }
    const RunResult res = run_pair(ov, opt.cycles, opt.plant);
    if (!res.failed) continue;

    std::printf("run %d FAILED: %s\n", i, res.what.c_str());
    const Cycle rep_cycles = res.diverged ? res.cycle + 1 : opt.cycles;
    const auto min_ov = minimize(ov, res, rep_cycles, opt.plant, deadline);
    write_repro(opt.out, min_ov, rep_cycles, opt.plant, res);
    std::printf("repro (%zu overrides) written to %s\n", min_ov.size(),
                opt.out.c_str());

    // Prove the repro replays before claiming victory — and replays the
    // same finding, not some other failure the shrinking surfaced.
    const RunResult replayed = run_pair(min_ov, rep_cycles, opt.plant);
    if (!same_failure(replayed, res)) {
      std::printf("WARNING: minimized repro did not replay the finding\n");
      return 2;
    }
    if (opt.selftest && (opt.plant == "route_into_dead_link" ||
                         opt.plant == "strand_waiter")) {
      // These plants only manifest on a faulted (or mid-run faulting)
      // mesh, so a faithful minimizer must keep the fault-topology
      // override. Losing it was exactly the old any-failure acceptance
      // bug.
      bool kept = false;
      for (const auto& o : min_ov) kept = kept || is_fault_override(o);
      if (!kept) {
        std::printf(
            "SELFTEST FAIL: minimized repro lost its fault-topology "
            "override\n");
        return 2;
      }
    }
    return opt.selftest ? 0 : 2;
  }
  std::printf("%d run(s), no divergence\n", opt.runs);
  return opt.selftest ? 1 : 0;
}

int replay_main(const Options& opt) {
  std::vector<std::string> ov;
  Cycle cycles = 1500;
  std::string plant = opt.plant;
  if (auto err = read_repro(opt.replay, ov, cycles, plant)) {
    std::fprintf(stderr, "%s\n", err->c_str());
    return 2;
  }
  if (!ftnoc::parse_test_mutation(plant)) {
    std::fprintf(stderr, "unknown plant in repro: %s\n", plant.c_str());
    return 2;
  }
  const RunResult res = run_pair(ov, cycles, plant);
  if (res.failed) {
    std::printf("reproduced: %s\n", res.what.c_str());
    return 0;
  }
  std::printf("did not reproduce\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : "";
    };
    bool ok = true;
    if (a == "--runs") {
      ok = ftnoc::parse_int(next(), opt.runs);
    } else if (a == "--cycles") {
      ok = ftnoc::parse_u64(next(), opt.cycles);
    } else if (a == "--seed") {
      ok = ftnoc::parse_u64(next(), opt.seed);
    } else if (a == "--time-budget") {
      ok = ftnoc::parse_double(next(), opt.time_budget_sec);
    } else if (a == "--out") {
      opt.out = next();
    } else if (a == "--plant") {
      opt.plant = next();
    } else if (a == "--selftest") {
      opt.selftest = true;
      if (opt.plant.empty()) opt.plant = "drop_window";
    } else if (a == "--replay") {
      opt.replay = next();
    } else {
      std::fprintf(stderr,
                   "usage: ftnoc_fuzz [--runs N] [--cycles N] [--seed S]\n"
                   "                  [--time-budget SEC] [--out FILE]\n"
                   "                  [--plant NAME] [--selftest]\n"
                   "                  [--replay FILE]\n");
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "malformed value for %s\n", a.c_str());
      return 2;
    }
  }
  if (!ftnoc::parse_test_mutation(opt.plant)) {
    std::fprintf(stderr, "unknown plant: %s\n", opt.plant.c_str());
    return 2;
  }
  if (!opt.replay.empty()) return replay_main(opt);
  return fuzz_main(opt);
}
