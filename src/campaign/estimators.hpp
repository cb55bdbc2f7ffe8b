#pragma once
// Per-point statistical aggregation for Monte-Carlo reliability campaigns.
//
// A campaign runs R independent replicas (same config, unrelated seeds) of
// every sweep point. Each replica contributes one sample per continuous
// metric (its run mean) and its raw event counts per reliability metric;
// the point-level estimate is then a mean with a normal 95% CI over the
// replica samples, and a Wilson score interval over the pooled Bernoulli
// counts. Replica-level means are iid by construction (disjoint seed
// streams), which is what makes the plain CI valid.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/stats_util.hpp"
#include "noc/simulator.hpp"

namespace ftnoc::campaign {

/// Adaptive sequential stopping rule. Replicas are scheduled in waves of
/// `wave_size()`; after each wave a point stops early once the 95% CI
/// half-width of its mean latency satisfies *any* configured target
/// (absolute cycles, or relative to the mean), with `min_replicas` as the
/// earliest decision and `max_replicas` as the hard budget. With no
/// target configured (ci_abs == ci_rel == 0) every point runs exactly
/// `max_replicas` replicas.
struct StopRule {
  double ci_abs = 0.0;   ///< Half-width target in cycles (0 = off).
  double ci_rel = 0.0;   ///< Half-width / |mean| target (0 = off).
  int min_replicas = 4;  ///< Never judge a point on fewer replicas.
  int max_replicas = 16; ///< Hard per-point replica cap.
  int wave = 0;          ///< Replicas per scheduling wave (0 = min_replicas).

  bool adaptive() const { return ci_abs > 0.0 || ci_rel > 0.0; }
  int wave_size() const { return wave > 0 ? wave : min_replicas; }
};

/// Everything a campaign knows about one point. Built wave by wave: each
/// wave accumulates its replicas (in replica order) into a fresh aggregate
/// which is then folded into the point's cumulative one via merge()
/// (RunningStat::merge underneath) — the fold order is deterministic, so
/// aggregates are byte-identical for any thread count.
struct PointAggregate {
  std::size_t point = 0;
  std::string label;
  std::uint64_t config_hash = 0;

  int replicas = 0;
  int completed_replicas = 0;  ///< Replicas that ejected the full budget.
  bool stopped_early = false;  ///< Stop rule fired before max_replicas.

  // Continuous metrics: one sample per replica (the replica's run mean).
  RunningStat latency;      ///< avg_latency_cycles
  RunningStat p99_latency;  ///< p99_latency_cycles
  RunningStat energy;       ///< energy_per_message_nj
  RunningStat throughput;   ///< throughput_flits_node_cycle

  // Reliability counts, pooled across replicas (Bernoulli trials).
  std::uint64_t measured_messages = 0;
  std::uint64_t corrupted_delivered = 0;  ///< The FEC silent-corruption hazard.
  std::uint64_t packets_created = 0;
  std::uint64_t messages_ejected = 0;
  std::uint64_t recoveries_entered = 0;
  std::uint64_t recoveries_exited = 0;

  /// Folds one replica's results in (used on the wave-local aggregate).
  void add_replica(const SimResults& r);

  /// Folds a finished wave into this cumulative aggregate.
  void merge(const PointAggregate& wave);

  /// 95% CI half-width of the mean latency (+inf below 2 replicas).
  double latency_ci() const { return mean_ci_halfwidth(latency); }

  /// Silent-corruption probability per delivered message.
  RateInterval corruption() const {
    return wilson_interval(corrupted_delivered, measured_messages);
  }
  /// Packet-loss rate: packets created but never ejected (drained by an
  /// unrecovered upset, or still stuck when the run stopped). Ejections can
  /// transiently exceed creations (a replica stopped mid-E2E-retransmit
  /// double-delivers), so the difference is clamped at zero rather than
  /// wrapping the unsigned subtraction.
  RateInterval loss() const {
    const std::uint64_t lost = packets_created > messages_ejected
                                   ? packets_created - messages_ejected
                                   : 0;
    return wilson_interval(lost, packets_created);
  }
  /// Fraction of replicas that completed (ejected their full budget).
  RateInterval completion() const {
    return wilson_interval(static_cast<std::uint64_t>(completed_replicas),
                           static_cast<std::uint64_t>(replicas));
  }

  /// True once the rule's CI target is satisfied (never before
  /// min_replicas; always false for a non-adaptive rule).
  bool meets(const StopRule& rule) const;
};

/// Serializes a finished point as a single-line JSON aggregate record
/// (type="point"): identity, replica counts, mean/stddev/95% CI for the
/// continuous metrics, and Wilson intervals for the reliability rates.
/// Shared by the campaign output stream and the journal (which uses it as
/// the per-point replica-count record).
std::string aggregate_line(const PointAggregate& agg,
                           std::uint64_t campaign_seed);

}  // namespace ftnoc::campaign
