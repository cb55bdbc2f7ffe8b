// Figure 13(b): energy per packet vs error rate under the three
// independently-simulated error mechanisms (LINK-HBH, RT-Logic, SA-Logic).
//
// Expected shape (paper): all three curves are essentially flat; LINK-HBH
// sits slightly above the logic-error schemes at high error rates because
// a link retransmission repeats buffer/crossbar/link work, while a caught
// logic upset only costs one extra arbitration.
//
// The grid lives in sweep/presets.hpp (shared with ftnoc_sweep) and runs
// batch-parallel through the SweepEngine.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::fig13b_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  state.counters["energy_total_uJ"] = pr.results.total_energy_uj;
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
