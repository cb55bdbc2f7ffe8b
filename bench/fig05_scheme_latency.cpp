// Figure 5: average message latency vs link error rate for the three link
// error-handling techniques (HBH retransmission, E2E retransmission,
// FEC-only) at injection rate 0.25 flits/node/cycle.
//
// Expected shape (paper): HBH stays essentially flat across the whole
// sweep; E2E latency explodes as the error rate grows (round trips +
// whole-packet retransmissions); FEC is flat but delivers silently corrupt
// packets at high error rates (it has no retransmission path) — the
// corrupted counter makes that visible.
//
// The grid itself lives in sweep/presets.hpp (shared with ftnoc_sweep) and
// runs batch-parallel through the SweepEngine; each printed row reports
// its point's wall-clock on its worker.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::fig05_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  const SimResults& r = pr.results;
  state.counters["corrupted"] = static_cast<double>(r.corrupted_delivered);
  state.counters["retx_events"] =
      static_cast<double>(r.link_retransmission_events);
  state.counters["e2e_retx"] = static_cast<double>(r.e2e_retransmits);
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
