#include "noc/simulator.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace ftnoc {

std::string SimResults::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "latency=%.2f cyc  energy=%.4f nJ/msg  msgs=%llu  "
                "tx_util=%.3f rtx_util=%.3f  corrected(link=%llu rt=%llu "
                "sa=%llu va=%llu)  %s",
                avg_latency_cycles, energy_per_message_nj,
                static_cast<unsigned long long>(measured_messages),
                tx_buffer_utilization, rtx_buffer_utilization,
                static_cast<unsigned long long>(link_errors_corrected),
                static_cast<unsigned long long>(rt_errors_recovered),
                static_cast<unsigned long long>(sa_errors_recovered),
                static_cast<unsigned long long>(va_errors_recovered),
                completed ? "completed" : "TIMED-OUT");
  return buf;
}

Simulator::Simulator(const SimConfig& cfg)
    : cfg_(cfg), net_(std::make_unique<Network>(cfg)) {}

SimResults Simulator::run() {
  Network& net = *net_;
  StatsCollector& stats = net.stats();
  bool warmed_up = cfg_.warmup_messages == 0;
  if (warmed_up) {
    stats.begin_measurement(0);
    net.meter().reset();
  }

  // Drain mode (run_to_drain with a loaded trace/workload): run until
  // every released packet left the network — ejected or dropped en route,
  // either of which closes its record — instead of counting ejections
  // against total_messages. Meant for pure trace-driven runs
  // (injection_rate = 0); a live synthetic source keeps creating packets
  // and the drain condition then only closes the run at max_cycles.
  const bool drain_mode = cfg_.run_to_drain && net.trace_loaded();
  auto drained = [&]() {
    return net.trace_drained() && net.packets().size() == 0;
  };
  while (net.now() < cfg_.max_cycles &&
         (drain_mode ? !drained()
                     : stats.messages_ejected() < cfg_.total_messages)) {
    net.step();
    if (!warmed_up && stats.messages_ejected() >= cfg_.warmup_messages) {
      warmed_up = true;
      stats.begin_measurement(net.now());
      net.meter().reset();
    }
  }

  SimResults r;
  r.completed = drain_mode ? drained()
                           : stats.messages_ejected() >= cfg_.total_messages;
  // Packet ledger, O(1) on every run: a record opens when its packet is
  // created and closes at its delivery or when a router discards its
  // tail, so created = ejected + dropped + live records.
  const std::uint64_t live = net.packets().size();
  if (stats.packets_created() !=
      stats.messages_ejected() + net.packets_dropped() + live) {
    std::fprintf(stderr,
                 "packet ledger broken: created=%llu ejected=%llu "
                 "dropped=%llu live_records=%llu\n",
                 static_cast<unsigned long long>(stats.packets_created()),
                 static_cast<unsigned long long>(stats.messages_ejected()),
                 static_cast<unsigned long long>(net.packets_dropped()),
                 static_cast<unsigned long long>(live));
    r.completed = false;
  }
  r.cycles = net.now();
  r.router_steps = net.router_steps();
  r.wire_ticks = net.wire_ticks();
  if (cfg_.link_stats) {
    const auto& fwd = net.link_fwd_counts();
    const auto& stall = net.link_stall_counts();
    for (std::size_t wid = 0; wid < fwd.size(); ++wid) {
      if (fwd[wid] == 0 && stall[wid] == 0) continue;
      r.link_util.push_back({static_cast<NodeId>(wid / 4),
                             static_cast<std::uint8_t>(wid % 4), fwd[wid],
                             stall[wid]});
    }
  }

  // Counters are copied on both paths: measurement-window counters drop
  // every event before begin_measurement(), so a run that never warmed up
  // reports only its whole-run accounting.
  r.packets_created = stats.packets_created();
  r.messages_ejected = stats.messages_ejected();
  r.link_errors_corrected = stats.link_errors_corrected();
#define FTNOC_X(name, window, gate) r.name = stats.name();
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X

  if (!warmed_up) {
    // The run hit max_cycles before ejecting even the warm-up budget:
    // there is no measurement window at all. Report the replica as
    // incomplete with zero measured messages and only the whole-run
    // accounting — computing windowed metrics from the never-started
    // window would report measure_start()=0 garbage (stale throughput,
    // zero-latency "samples") that poisons campaign aggregation.
    r.completed = false;
    return r;
  }

  r.avg_latency_cycles = stats.latency().mean();
  r.avg_total_latency_cycles = stats.total_latency().mean();
  r.p50_latency_cycles = stats.latency_histogram().quantile(0.5);
  r.p99_latency_cycles = stats.latency_histogram().quantile(0.99);
  r.max_latency_cycles = stats.latency().max();
  r.measured_messages = stats.measured_messages();

  const Cycle measured_cycles =
      net.now() > stats.measure_start() ? net.now() - stats.measure_start()
                                        : 1;
  r.throughput_flits_node_cycle =
      static_cast<double>(stats.measured_flits()) /
      (static_cast<double>(measured_cycles) *
       static_cast<double>(cfg_.num_nodes()));

  r.total_energy_uj = net.meter().total_pj() * 1e-6;
  r.energy_per_message_nj =
      r.measured_messages
          ? net.meter().total_nj() / static_cast<double>(r.measured_messages)
          : 0.0;

  r.tx_buffer_utilization = stats.tx_buffer_utilization().mean();
  r.rtx_buffer_utilization = stats.rtx_buffer_utilization().mean();
  return r;
}

SimResults run_simulation(const SimConfig& cfg) {
  Simulator sim(cfg);
  return sim.run();
}

}  // namespace ftnoc
