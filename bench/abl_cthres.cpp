// Ablation: probe threshold (Cthres) sensitivity.
//
// The paper's claim (§3.2.2): because the probe verifies a suspected
// deadlock before any action is taken, Cthres "need not be precisely
// calculated; its effect on overall network performance will be minimal as
// long as the value chosen is not excessively high". This bench sweeps
// Cthres over two orders of magnitude under congested adaptive traffic and
// reports latency and probe/recovery activity: latency should stay nearly
// flat, with only probe counts changing.
//
// The grid lives in sweep/presets.hpp (shared with ftnoc_sweep) and runs
// batch-parallel through the SweepEngine.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::abl_cthres_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  const SimResults& r = pr.results;
  state.counters["probes"] = static_cast<double>(r.probes_sent);
  state.counters["confirmed"] = static_cast<double>(r.deadlocks_confirmed);
  state.counters["recoveries"] = static_cast<double>(r.recoveries_entered);
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
