// Figure 9: retransmission-buffer utilization vs injection rate for the
// adaptive (AD) and deterministic (DT) routing algorithms.
//
// Expected shape (paper): much lower than the transmission buffers
// (peaking below ~0.2): a retransmission-buffer slot is only occupied for
// the 3-cycle NACK window after each flit transmission, so its occupancy
// tracks *link throughput*, not blocking. It rises with offered load up to
// saturation and then flattens/declines as blocking throttles flit
// transmissions — the paper's motivation for reusing these mostly-idle
// buffers for deadlock recovery.
//
// The grid lives in sweep/presets.hpp (shared with ftnoc_sweep) and runs
// batch-parallel through the SweepEngine.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::fig09_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  state.counters["rtx_util"] = pr.results.rtx_buffer_utilization;
  state.counters["tx_util"] = pr.results.tx_buffer_utilization;
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
