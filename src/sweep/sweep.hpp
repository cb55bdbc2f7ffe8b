#pragma once
// Batch-parallel evaluation of independent simulation points.
//
// A sweep is a list of (label, SimConfig) points — the shape of every
// paper figure, ablation and characterization study. The engine runs the
// points on a fixed-size worker pool: each worker owns its Simulator, so
// the only shared mutable state is the work queue (an atomic index) and
// the per-point result slots (disjoint).
//
// Determinism guarantee: the seed of point i depends only on
// (base_seed, i) — never on which worker picks the point or in what order
// the pool schedules it — so a sweep produces bit-identical SimResults for
// any thread count. Streaming output (`on_result`) is delivered in point
// order for the same reason: two runs of the same sweep are diffable.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/simulator.hpp"

namespace ftnoc::sweep {

/// One point of a sweep: a human-readable series label plus the full
/// configuration to simulate.
struct SweepPoint {
  std::string label;
  SimConfig config;
};

/// How the engine seeds each point.
enum class SeedPolicy : std::uint8_t {
  /// config.seed is replaced with Rng::derive_seed(base_seed, index):
  /// every point gets an unrelated stream, stable across thread counts.
  kDerivePerPoint,
  /// config.seed is used exactly as given (for reproducing runs whose
  /// configs already pin their seeds: ftnoc_sweep --fixed-seed).
  kUseConfigSeed,
};

struct SweepOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  std::uint64_t base_seed = 1;
  SeedPolicy seed_policy = SeedPolicy::kDerivePerPoint;
};

/// One finished point. `config` carries the seed the engine actually used.
struct PointResult {
  std::size_t index = 0;
  std::string label;
  SimConfig config;
  SimResults results;
  double wall_ms = 0.0;  ///< Wall-clock of this point on its worker.
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions opts = {});

  /// Invoked in point order (0, 1, 2, ...) as soon as a prefix of the
  /// sweep is complete — use for streaming output. The order is a property
  /// of the sweep, not of the scheduling.
  using ResultCallback = std::function<void(const PointResult&)>;

  /// Invoked once per completed point, in completion order, with the
  /// number of points done so far — use for progress display.
  using ProgressCallback = std::function<void(
      std::size_t done, std::size_t total, const PointResult&)>;

  /// Runs every point and returns the results in point order. Callbacks
  /// are serialized under one lock (never invoked concurrently). Each
  /// config must satisfy SimConfig::validate(); violations abort.
  std::vector<PointResult> run(const std::vector<SweepPoint>& points,
                               const ResultCallback& on_result = nullptr,
                               const ProgressCallback& on_progress = nullptr);

  /// Generic parallel-for over `count` independent tasks on the engine's
  /// pool (the primitive run() is built on). `fn(i)` is invoked exactly
  /// once per index, from whichever worker claims it; fn must be
  /// thread-safe across distinct indices. The campaign engine schedules
  /// its replica waves through this hook.
  void for_each(std::size_t count,
                const std::function<void(std::size_t)>& fn);

  /// The pool size this engine resolved to (after the 0 = hardware rule).
  int num_threads() const { return threads_; }

 private:
  SweepOptions opts_;
  int threads_;
};

}  // namespace ftnoc::sweep
