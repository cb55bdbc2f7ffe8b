// scheme_shootout: compare the link-protection schemes head to head on one
// configuration — the interactive companion to the Figure 5 sweep.
//
// For each scheme (none / FEC / E2E / HBH) at the chosen error rate, the
// table shows what a designer actually trades off: latency, energy,
// retransmission traffic, and whether data survives intact.
//
//   ./scheme_shootout [key=value ...]
//   ./scheme_shootout link_error_rate=0.05 multi_bit_fraction=0.2

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/simulator.hpp"

int main(int argc, char** argv) {
  ftnoc::SimConfig cfg;
  cfg.injection_rate = 0.25;  // The paper's Figure 5 operating point.
  cfg.faults.link_error_rate = 0.01;
  cfg.warmup_messages = 2'000;
  cfg.total_messages = 12'000;
  cfg.max_cycles = 2'000'000;

  std::vector<std::string> overrides(argv + 1, argv + argc);
  if (auto err = ftnoc::apply_overrides(cfg, overrides)) {
    std::fprintf(stderr, "config error: %s\n", err->c_str());
    return 1;
  }
  if (auto err = cfg.validate()) {
    std::fprintf(stderr, "invalid config: %s\n", err->c_str());
    return 1;
  }

  std::printf("link-protection shootout: %dx%d mesh, inj=%.2f, "
              "error rate=%g (multi-bit fraction %g)\n\n",
              cfg.mesh_width, cfg.mesh_height, cfg.injection_rate,
              cfg.faults.link_error_rate, cfg.faults.multi_bit_fraction);
  std::printf("%-6s %10s %10s %9s %9s %10s %10s  %s\n", "scheme", "latency",
              "nJ/msg", "SEC_fix", "retx", "e2e_retx", "corrupted", "run");

  const ftnoc::LinkProtection schemes[] = {
      ftnoc::LinkProtection::kNone, ftnoc::LinkProtection::kFec,
      ftnoc::LinkProtection::kE2e, ftnoc::LinkProtection::kHbh};
  for (const auto scheme : schemes) {
    ftnoc::SimConfig c = cfg;
    c.protection = scheme;
    const ftnoc::SimResults r = ftnoc::run_simulation(c);
    std::printf("%-6s %10.2f %10.4f %9llu %9llu %10llu %10llu  %s\n",
                to_string(scheme), r.avg_latency_cycles,
                r.energy_per_message_nj,
                static_cast<unsigned long long>(r.link_single_corrected),
                static_cast<unsigned long long>(r.link_flits_retransmitted
                                                    ? r.link_flits_retransmitted
                                                    : r.link_retransmission_events),
                static_cast<unsigned long long>(r.e2e_retransmits),
                static_cast<unsigned long long>(r.corrupted_delivered),
                r.completed ? "ok" : "TIMED-OUT");
  }

  std::printf("\nHBH keeps latency and energy flat while delivering every "
              "message intact; FEC leaks corrupt packets; E2E pays "
              "round-trip retransmissions; 'none' is what the paper is "
              "arguing against.\n");
  return 0;
}
