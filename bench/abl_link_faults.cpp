// Ablation: graceful degradation under permanent link faults.
//
// DESIGN.md §4.9: with k statically dead links, adaptive routing detours
// around the holes and the network keeps delivering every packet whose
// source and destination stay connected. Each point is one rung of the
// fault_degradation preset (k = 0..4 dead links on the paper's 8x8 mesh);
// the series to read is delivered_frac (messages_ejected /
// packets_created), which must be monotone non-increasing in k and stay at
// 1.0 while no source-destination pair is disconnected — degradation shows
// up as latency and reroute counts, not as loss.

#include "bench_common.hpp"

namespace ftnoc::bench {
namespace {

SweepCache& cache() {
  static SweepCache c = [] {
    SimConfig base = paper_config();
    return SweepCache(sweep::fault_degradation_points(base));
  }();
  return c;
}

void extra_counters(benchmark::State& state, const sweep::PointResult& pr) {
  const SimResults& r = pr.results;
  const double created = static_cast<double>(r.packets_created);
  state.counters["delivered_frac"] =
      created > 0.0 ? static_cast<double>(r.messages_ejected) / created : 1.0;
  state.counters["rerouted"] = static_cast<double>(r.packets_rerouted);
  state.counters["unreachable"] = static_cast<double>(r.unreachable_drops);
  state.counters["hard_reroutes"] = static_cast<double>(r.hard_fault_reroutes);
}

const int registered = (register_sweep(cache(), extra_counters), 0);

}  // namespace
}  // namespace ftnoc::bench

BENCHMARK_MAIN();
