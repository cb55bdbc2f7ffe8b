#pragma once
// Shared plumbing for the figure/table reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper: every
// registered benchmark is one data point (one simulator run), and the
// paper's metric is exported through google-benchmark counters, so the
// printed table *is* the figure's series.
//
// Scale: the paper runs 300k ejected messages (100k warm-up) per point.
// The default here is 30k/10k so the full harness finishes in minutes on a
// laptop; the shapes are insensitive to this. Set FTNOC_BENCH_MESSAGES /
// FTNOC_BENCH_WARMUP to reproduce at full scale.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "noc/simulator.hpp"
#include "sweep/presets.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// The paper's evaluation platform (§2.2): 8x8 mesh, 3-stage routers,
/// 5 PCs, 3 VCs/PC, 4-flit packets, uniform injection.
inline SimConfig paper_config() {
  SimConfig cfg;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.num_vcs = 3;
  cfg.pipeline_stages = 3;
  cfg.packet_length = 4;
  cfg.injection_rate = 0.25;
  cfg.total_messages = env_u64("FTNOC_BENCH_MESSAGES", 30'000);
  cfg.warmup_messages = env_u64("FTNOC_BENCH_WARMUP", 10'000);
  cfg.max_cycles = env_u64("FTNOC_BENCH_MAX_CYCLES", 1'500'000);
  return cfg;
}

/// Exports the standard counter set every figure shares.
inline void export_counters(benchmark::State& state, const SimResults& r) {
  state.counters["latency_cyc"] = r.avg_latency_cycles;
  state.counters["energy_nJ"] = r.energy_per_message_nj;
  state.counters["messages"] = static_cast<double>(r.measured_messages);
  state.counters["completed"] = r.completed ? 1.0 : 0.0;
}

/// Runs one simulation inside the benchmark loop and exports the standard
/// counter set.
inline SimResults run_point(benchmark::State& state, const SimConfig& cfg) {
  SimResults r;
  for (auto _ : state) {
    r = run_simulation(cfg);
  }
  export_counters(state, r);
  return r;
}

inline std::string rate_label(double r) { return sweep::rate_label(r); }

/// Runs a whole grid through the parallel SweepEngine once (on first
/// access) and hands out per-point results. A bench ported onto the cache
/// registers one benchmark per point as before, but the points execute
/// concurrently on FTNOC_BENCH_THREADS workers (default: all cores); each
/// benchmark reports its point's wall-clock on its worker as manual time,
/// so the printed table is unchanged while the binary's wall-clock shrinks
/// to the longest chain on the pool.
class SweepCache {
 public:
  explicit SweepCache(std::vector<sweep::SweepPoint> points)
      : points_(std::move(points)) {}

  const std::vector<sweep::SweepPoint>& points() const { return points_; }

  const sweep::PointResult& result(std::size_t index) {
    ensure_ran();
    return results_.at(index);
  }

 private:
  void ensure_ran() {
    if (!results_.empty()) return;
    sweep::SweepOptions opts;
    opts.num_threads = static_cast<int>(env_u64("FTNOC_BENCH_THREADS", 0));
    // Bench grids pin their seeds in the configs; keep them so the series
    // match the historical sequential runs bit for bit.
    opts.seed_policy = sweep::SeedPolicy::kUseConfigSeed;
    results_ = sweep::SweepEngine(opts).run(points_);
  }

  std::vector<sweep::SweepPoint> points_;
  std::vector<sweep::PointResult> results_;
};

/// Registers one manual-time benchmark per cached point; `extra` lets each
/// figure add its own counters from the point's config and results.
inline void register_sweep(
    SweepCache& cache,
    void (*extra)(benchmark::State&, const sweep::PointResult&) = nullptr) {
  const auto& pts = cache.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    benchmark::RegisterBenchmark(
        pts[i].label.c_str(),
        [&cache, i, extra](benchmark::State& state) {
          const sweep::PointResult& pr = cache.result(i);
          for (auto _ : state) {
            state.SetIterationTime(pr.wall_ms / 1000.0);
          }
          export_counters(state, pr.results);
          if (extra != nullptr) extra(state, pr);
        })
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace ftnoc::bench
