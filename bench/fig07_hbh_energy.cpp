// Figure 7: energy per message vs link error rate for the proposed HBH
// retransmission scheme under NR / BC / TN traffic at injection rate 0.25.
//
// Expected shape (paper): essentially flat across five decades of error
// rate — a retransmission only repeats a single-hop flit transfer, which
// is negligible against the full source-to-destination traversal energy.
// Series are ordered by average hop count (BC > TN > NR on the 8x8 mesh).
//
// The grid lives in sweep/presets.hpp (shared with ftnoc_sweep) and runs
// batch-parallel through the SweepEngine.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::fig07_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  const SimResults& r = pr.results;
  state.counters["energy_total_uJ"] = r.total_energy_uj;
  state.counters["retx_events"] =
      static_cast<double>(r.link_retransmission_events);
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
