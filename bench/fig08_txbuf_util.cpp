// Figure 8: transmission-buffer (input VC FIFO) utilization vs injection
// rate for the adaptive (AD) and deterministic (DT) routing algorithms.
//
// Expected shape (paper): utilization climbs with offered load and levels
// off near saturation (~0.8+); AD sustains slightly higher utilization
// because it spreads load over both productive dimensions.
//
// Runs past the saturation point never eject the full message budget; the
// bench caps them by cycles and reports the utilization measured in steady
// state (completed=0 marks those points).
//
// The grid lives in sweep/presets.hpp (shared with ftnoc_sweep) and runs
// batch-parallel through the SweepEngine.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::fig08_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  state.counters["tx_util"] = pr.results.tx_buffer_utilization;
  state.counters["throughput"] = pr.results.throughput_flits_node_cycle;
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
