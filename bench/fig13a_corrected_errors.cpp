// Figure 13(a): number of errors corrected vs error rate for the three
// protection mechanisms, each simulated independently (paper §4.3):
//
//   LINK-HBH : link soft faults handled by SEC + HBH retransmission
//   RT-Logic : routing-unit logic upsets caught by the VA/receiving router
//   SA-Logic : switch-allocator upsets caught by the Allocation Comparator
//
// Expected shape (paper): counts scale linearly with the error rate;
// SA-Logic > LINK-HBH > RT-Logic, because the SA arbitrates every flit
// (often repeatedly, under contention), each flit traverses each link only
// once per hop, and the RT runs only on header flits.
//
// The grid lives in sweep/presets.hpp (shared with ftnoc_sweep) and runs
// batch-parallel through the SweepEngine.

#include "bench_common.hpp"
#include "sweep/presets.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c(sweep::fig13a_points(paper_config()));
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  // Each series injects exactly one fault mechanism; report its counter.
  const SimResults& r = pr.results;
  const FaultConfig& f = pr.config.faults;
  std::uint64_t corrected = r.link_errors_corrected;
  if (f.rt_error_rate > 0) corrected = r.rt_errors_recovered;
  if (f.sa_error_rate > 0) corrected = r.sa_errors_recovered;
  state.counters["corrected"] = static_cast<double>(corrected);
  state.counters["corrupted"] = static_cast<double>(r.corrupted_delivered);
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
