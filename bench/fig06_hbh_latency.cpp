// Figure 6: average message latency vs link error rate for the proposed
// hybrid HBH retransmission scheme (SEC corrects single-bit upsets in
// place, multi-bit upsets are NACKed and replayed from the 3-deep barrel
// shifter) under the three destination distributions NR / BC / TN at
// injection rate 0.25 flits/node/cycle on the 8x8 mesh.
//
// Expected shape (paper): latency stays almost constant up to a 10% error
// rate for all three patterns; the curves are ordered by average hop count
// / load imbalance (BC highest, NR lowest).
//
// The grid lives in sweep/presets.hpp (shared with ftnoc_sweep) and runs
// batch-parallel through the SweepEngine.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::fig06_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  const SimResults& r = pr.results;
  state.counters["retx_events"] =
      static_cast<double>(r.link_retransmission_events);
  state.counters["sec_corrected"] =
      static_cast<double>(r.link_single_corrected);
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
