#pragma once
// Network-wide metric collection. The simulator warms the network up first
// (paper §2.2: 100k warm-up messages out of 300k); measurement begins when
// the warm-up ejection count is reached and all per-run metrics reported in
// the sweep records come from the measurement window only.

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/stats_util.hpp"
#include "common/types.hpp"

namespace ftnoc {

/// Which events a table counter sees: only those inside the measurement
/// window, or every event of the run (delivery/topology accounting).
enum class CounterWindow { kMeasured, kWholeRun };

/// When a table counter's JSONL column is emitted. kAlways columns are part
/// of every result line (and of campaign journal replica lines); the others
/// appear only for configs that can move them, so older key sets stay
/// byte-identical: has_permanent_faults(), a non-empty storm_kills
/// timeline.
enum class CounterGate { kAlways, kPermanentFaults, kStormKills };

// The event-counter table: X(name, window, gate), in JSONL key order. Each
// entry becomes a StatsCollector accessor and a SimResults field of the
// same name; Simulator::run copies it, sweep/jsonl.cpp emits it and the
// campaign journal parses it back, all by walking this list. Adding a
// counter is one line here plus the count(Counter::name) call that bumps
// it.
//
// Fault-tolerance entries whose names say less than they count:
// hard_fault_reroutes, RT computations whose fault-aware port set offers
// a direction the closed-form set does not (a detour around a dead link);
// packets_rerouted, waiting packets whose chosen next hop died and
// went back to routing; unreachable_drops, always 0 (the live fabric stays
// connected, so no packet lacks a path; the benchmark harness still reads
// the row); links_storm_killed, fault-storm kills accepted past the
// partition veto.
#define FTNOC_COUNTERS(X)                                 \
  X(link_single_corrected, kMeasured, kAlways)            \
  X(link_retransmission_events, kMeasured, kAlways)       \
  X(link_flits_retransmitted, kMeasured, kAlways)         \
  X(flits_dropped, kMeasured, kAlways)                    \
  X(nacks_sent, kMeasured, kAlways)                       \
  X(rt_errors_recovered, kMeasured, kAlways)              \
  X(va_errors_recovered, kMeasured, kAlways)              \
  X(sa_errors_recovered, kMeasured, kAlways)              \
  X(unprotected_errors, kMeasured, kAlways)               \
  X(corrupted_delivered, kMeasured, kAlways)              \
  X(e2e_retransmits, kMeasured, kAlways)                  \
  X(rtx_errors_corrected, kMeasured, kAlways)             \
  X(handshake_errors_corrected, kMeasured, kAlways)       \
  X(hard_fault_reroutes, kMeasured, kAlways)              \
  X(probes_sent, kMeasured, kAlways)                      \
  X(probes_discarded, kMeasured, kAlways)                 \
  X(deadlocks_confirmed, kMeasured, kAlways)              \
  X(recoveries_entered, kMeasured, kAlways)               \
  X(recoveries_exited, kMeasured, kAlways)                \
  X(fallback_recoveries, kMeasured, kAlways)              \
  X(flits_absorbed, kMeasured, kAlways)                   \
  X(packets_rerouted, kWholeRun, kPermanentFaults)        \
  X(unreachable_drops, kWholeRun, kPermanentFaults)       \
  X(links_storm_killed, kWholeRun, kStormKills)

/// A table entry's index into the collector's counts.
enum class Counter : std::size_t {
#define FTNOC_X(name, window, gate) name,
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
};

/// Each table entry's window, indexed by Counter.
inline constexpr CounterWindow kCounterWindow[] = {
#define FTNOC_X(name, window, gate) CounterWindow::window,
    FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
};
inline constexpr std::size_t kNumCounters = std::size(kCounterWindow);

class StatsCollector {
 public:
  StatsCollector()
      : latency_hist_(/*bucket_width=*/1.0, /*num_buckets=*/4096) {}
  /// Starts the measurement window (called once, at the warm-up boundary).
  void begin_measurement(Cycle now) {
    measuring_ = true;
    measure_start_ = now;
  }
  bool measuring() const { return measuring_; }
  Cycle measure_start() const { return measure_start_; }

  // --- Traffic lifecycle -------------------------------------------------
  void on_packet_created() { ++packets_created_; }
  /// `birth` = packet generation time (includes source queueing);
  /// `inject` = first header injection into the network (the paper's
  /// message-latency reference point; 0 if unknown); `flits` = the
  /// message's length (workload packets carry their own).
  void on_message_ejected(Cycle now, Cycle birth, Cycle inject,
                          bool corrupted, std::uint64_t flits) {
    ++messages_ejected_;
    if (!measuring_) return;
    ++measured_messages_;
    measured_flits_ += flits;
    const double lat = static_cast<double>(now - (inject ? inject : birth));
    latency_.add(lat);
    latency_hist_.add(lat);
    total_latency_.add(static_cast<double>(now - birth));
    if (corrupted) count(Counter::corrupted_delivered);
  }

  // --- Table counters -------------------------------------------------------
  /// Adds `n` to a table counter. Measurement-window counters ignore
  /// events before begin_measurement(), so callers need not check.
  void count(Counter c, std::uint64_t n = 1) {
    const auto i = static_cast<std::size_t>(c);
    if (kCounterWindow[i] == CounterWindow::kMeasured && !measuring_) return;
    counts_[i] += n;
  }

  // --- Per-cycle sampling --------------------------------------------------
  /// `tx_frac` / `rtx_frac`: network-wide occupied-slot fractions this cycle.
  void sample_buffers(double tx_frac, double rtx_frac) {
    if (!measuring_) return;
    tx_util_.add(tx_frac);
    rtx_util_.add(rtx_frac);
  }

  // --- Accessors ------------------------------------------------------------
  std::uint64_t packets_created() const { return packets_created_; }
  std::uint64_t messages_ejected() const { return messages_ejected_; }
  std::uint64_t measured_messages() const { return measured_messages_; }
  std::uint64_t measured_flits() const { return measured_flits_; }
  const RunningStat& latency() const { return latency_; }
  const RunningStat& total_latency() const { return total_latency_; }
  /// Message-latency distribution (1-cycle buckets, for tail quantiles).
  const Histogram& latency_histogram() const { return latency_hist_; }
  const RunningStat& tx_buffer_utilization() const { return tx_util_; }
  const RunningStat& rtx_buffer_utilization() const { return rtx_util_; }

#define FTNOC_X(name, window, gate)                          \
  std::uint64_t name() const {                               \
    return counts_[static_cast<std::size_t>(Counter::name)]; \
  }
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X

  /// Total corrected link errors: SEC singles + retransmitted multi-bit
  /// flit errors (what Figure 13(a)'s LINK-HBH series counts).
  std::uint64_t link_errors_corrected() const {
    return link_single_corrected() + link_retransmission_events();
  }

 private:
  bool measuring_ = false;
  Cycle measure_start_ = 0;

  std::uint64_t packets_created_ = 0;
  std::uint64_t messages_ejected_ = 0;
  std::uint64_t measured_messages_ = 0;
  std::uint64_t measured_flits_ = 0;
  RunningStat latency_;
  RunningStat total_latency_;
  Histogram latency_hist_;
  RunningStat tx_util_;
  RunningStat rtx_util_;
  std::array<std::uint64_t, kNumCounters> counts_{};
};

}  // namespace ftnoc
