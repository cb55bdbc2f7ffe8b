#pragma once
// Top-level simulation driver: runs a Network until the configured number
// of messages has been ejected (paper §2.2: inject until 300k messages,
// including 100k warm-up, are ejected), and condenses the collected metrics
// into a flat result record (one JSONL line per sweep point).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/network.hpp"

namespace ftnoc {

/// SimResults' scalar metrics in JSONL column order (the FTNOC_COUNTERS
/// columns follow): sweep::append_result_fields writes them and the
/// campaign journal reads them back.
#define FTNOC_RESULT_FIELDS(X)                                      \
  X(completed) X(cycles) X(avg_latency_cycles)                      \
  X(avg_total_latency_cycles) X(p50_latency_cycles)                 \
  X(p99_latency_cycles) X(max_latency_cycles) X(measured_messages)  \
  X(throughput_flits_node_cycle) X(packets_created)                 \
  X(messages_ejected) X(energy_per_message_nj) X(total_energy_uj)   \
  X(tx_buffer_utilization) X(rtx_buffer_utilization)                \
  X(link_errors_corrected)

struct SimResults {
  bool completed = false;  ///< False if max_cycles hit before enough ejections.
  Cycle cycles = 0;

  // Performance. `avg_latency_cycles` is measured from header injection
  // into the network to tail ejection (the paper's message latency);
  // `avg_total_latency_cycles` additionally includes source queueing.
  double avg_latency_cycles = 0.0;
  double avg_total_latency_cycles = 0.0;
  double p50_latency_cycles = 0.0;
  double p99_latency_cycles = 0.0;
  double max_latency_cycles = 0.0;
  std::uint64_t measured_messages = 0;
  double throughput_flits_node_cycle = 0.0;

  // Whole-run delivery accounting (not gated on the measurement window):
  // created - ejected is the packet-loss population at end of run (drained
  // packets plus whatever was still in flight when the run stopped).
  std::uint64_t packets_created = 0;
  std::uint64_t messages_ejected = 0;

  // Energy (measurement window only).
  double energy_per_message_nj = 0.0;
  double total_energy_uj = 0.0;

  // Buffer occupancy (Figures 8/9).
  double tx_buffer_utilization = 0.0;
  double rtx_buffer_utilization = 0.0;

  /// SEC singles + retransmitted multi-bit flit errors (measurement
  /// window; StatsCollector::link_errors_corrected).
  std::uint64_t link_errors_corrected = 0;

  // Event counters: one field per noc/stats.hpp FTNOC_COUNTERS entry,
  // under the entry's name. Whole-run entries are filled even when the run
  // never warmed up; measurement-window entries are zero then.
#define FTNOC_X(name, window, gate) std::uint64_t name = 0;
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X

  /// Per-directed-link congestion rows (cfg.link_stats only; links with
  /// zero activity are omitted). `dir` is the numeric Direction (N=0, E=1,
  /// S=2, W=3); `fwd` counts measured cycles the link carried a flit,
  /// `stall` measured cycles it idled while the receiver still buffered
  /// flits from it.
  struct LinkUtil {
    NodeId node = 0;
    std::uint8_t dir = 0;
    std::uint64_t fwd = 0;
    std::uint64_t stall = 0;
  };
  std::vector<LinkUtil> link_util;

  /// Whole-run kernel work (Network::router_steps / wire_ticks). Not a
  /// JSONL or journal column: the tier-1 work pins read it directly.
  std::uint64_t router_steps = 0;
  std::uint64_t wire_ticks = 0;

  std::string summary() const;
};

class Simulator {
 public:
  explicit Simulator(const SimConfig& cfg);

  /// Runs to completion (or max_cycles) and returns the condensed metrics.
  SimResults run();

  Network& network() { return *net_; }
  const SimConfig& config() const { return cfg_; }

 private:
  SimConfig cfg_;
  std::unique_ptr<Network> net_;
};

/// Convenience: configure, run, return results.
SimResults run_simulation(const SimConfig& cfg);

}  // namespace ftnoc
