// Quickstart: build a fault-tolerant 8x8 mesh NoC, inject uniform traffic
// with link errors, and print the headline metrics.
//
//   ./quickstart [key=value ...]
//
// e.g.  ./quickstart injection_rate=0.25 link_error_rate=0.001 pattern=bc

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/simulator.hpp"

int main(int argc, char** argv) {
  ftnoc::SimConfig cfg;
  // A laptop-friendly default run; override on the command line.
  cfg.injection_rate = 0.2;
  cfg.faults.link_error_rate = 0.001;
  cfg.protection = ftnoc::LinkProtection::kHbh;
  cfg.warmup_messages = 2'000;
  cfg.total_messages = 10'000;

  std::vector<std::string> overrides(argv + 1, argv + argc);
  if (auto err = ftnoc::apply_overrides(cfg, overrides)) {
    std::fprintf(stderr, "config error: %s\n", err->c_str());
    return 1;
  }
  if (auto err = cfg.validate()) {
    std::fprintf(stderr, "invalid config: %s\n", err->c_str());
    return 1;
  }

  std::printf("ftnoc quickstart: %dx%d mesh, %s routing, %s protection, "
              "inj=%.3f flits/node/cycle, link_err=%g\n",
              cfg.mesh_width, cfg.mesh_height, to_string(cfg.routing),
              to_string(cfg.protection), cfg.injection_rate,
              cfg.faults.link_error_rate);

  ftnoc::Simulator sim(cfg);
  const ftnoc::SimResults r = sim.run();

  std::printf("\n--- results (%llu measured messages, %llu cycles) ---\n",
              static_cast<unsigned long long>(r.measured_messages),
              static_cast<unsigned long long>(r.cycles));
  std::printf("avg message latency : %8.2f cycles\n", r.avg_latency_cycles);
  std::printf("avg incl. queueing  : %8.2f cycles\n",
              r.avg_total_latency_cycles);
  std::printf("p50 / p99 / max     : %8.2f / %.2f / %.2f cycles\n",
              r.p50_latency_cycles, r.p99_latency_cycles,
              r.max_latency_cycles);
  std::printf("throughput          : %8.4f flits/node/cycle\n",
              r.throughput_flits_node_cycle);
  std::printf("energy per message  : %8.4f nJ\n", r.energy_per_message_nj);
  std::printf("tx buffer util      : %8.4f\n", r.tx_buffer_utilization);
  std::printf("rtx buffer util     : %8.4f\n", r.rtx_buffer_utilization);
  std::printf("link errors fixed   : %8llu (SEC %llu + retransmit %llu)\n",
              static_cast<unsigned long long>(r.link_errors_corrected),
              static_cast<unsigned long long>(r.link_single_corrected),
              static_cast<unsigned long long>(r.link_retransmission_events));
  std::printf("corrupted delivered : %8llu\n",
              static_cast<unsigned long long>(r.corrupted_delivered));
  std::printf("\n--- energy composition (measurement window) ---\n%s",
              ftnoc::power::energy_report(sim.network().meter()).c_str());
  std::printf("\n%s\n", r.completed ? "run completed" : "run TIMED OUT");
  return r.completed ? 0 : 2;
}
// (Use scheme_shootout / fault_storm for comparisons, and
// `ftnoc_sweep --preset=... --fixed-seed` to regenerate the paper's
// figures; EXPERIMENTS.md lists every command.)
