#pragma once
// Deadlock detection & recovery protocol (paper §3.2).
//
// Detection is by probing (§3.2.2): a VC blocked for more than Cthres
// cycles launches a compact probe along the suspected dependency chain.
// Rules 1-4 of the paper are implemented by DeadlockAgent; the router feeds
// it blocked-status observations and delivers/receives the signals.
//
//   Rule 1: blocked > Cthres  -> send probe to the next node, naming the
//           VC buffer the suspect flit is waiting on.
//   Rule 2: a node receiving a probe forwards it iff the named buffer is
//           also blocked there (or the node is already in recovery mode),
//           rewriting the VC identifier; otherwise it discards the probe.
//   Rule 3: an activation signal is discarded unless a probe from the same
//           sender was seen before.
//   Rule 4: a valid activation received while waiting for one's own probe
//           switches the node to recovery mode; the node's own returning
//           probe is then discarded.
//
// A probe that returns to its origin proves a cyclic chain of blocked
// buffers -> genuine deadlock, no false positives. The origin then sends an
// activation around the same cycle; each node that relayed the probe enters
// recovery mode, in which it absorbs blocked flits into its (idle)
// retransmission buffers to create slack (Figure 10).
//
// Eq. (1) gives the buffer lower bound for guaranteed recovery:
//   B2 = sum_i (T_i + R_i)  >  M * N
// with M flits/packet, N the max number of distinct packets a transmission
// buffer can hold times nodes... see `recovery_buffer_bound_ok` in
// common/config.hpp.

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace ftnoc {

/// A probe travelling the suspected deadlock cycle. `in_port`/`in_vc` name
/// the buffer to inspect at the receiving node (rewritten hop by hop).
struct ProbeSignal {
  NodeId origin = kInvalidNode;
  std::uint32_t probe_id = 0;
  PortId in_port = kInvalidPort;
  VcId in_vc = kInvalidVc;
  /// Hops travelled; routers drop probes past their TTL so a probe cannot
  /// circulate forever inside a cycle that excludes its origin.
  std::uint32_t hops = 0;
};
static_assert(std::is_trivially_copyable_v<ProbeSignal> &&
              std::is_trivially_destructible_v<ProbeSignal>);

/// Activation travelling the same cycle after the probe returned.
struct ActivationSignal {
  NodeId origin = kInvalidNode;
  std::uint32_t probe_id = 0;
};
static_assert(std::is_trivially_copyable_v<ActivationSignal> &&
              std::is_trivially_destructible_v<ActivationSignal>);

/// What a node should do with an incoming probe (Rule 2).
enum class ProbeAction : std::uint8_t {
  kDiscard,        ///< Named buffer is not blocked here.
  kForward,        ///< Forward with rewritten target.
  kReturnToOrigin, ///< The probe arrived back at its origin: deadlock!
};

/// Fixed protocol constants, shared by Router and ReferenceRouter.
///
/// Probes are dropped after kProbeTtlPerNode x (node count) hops so they
/// cannot circulate forever inside a dependency cycle that does not
/// contain their origin.
inline constexpr std::uint32_t kProbeTtlPerNode = 4;
/// Fallback self-recovery: a router whose probes expired this many times
/// in a row with *zero local progress* in between enters recovery mode
/// unilaterally. Handles dense multi-cycle saturation knots where a
/// blocked packet's dependency chain ends in a cycle it is not part of
/// (its probe can then never return).
inline constexpr int kFallbackProbeFailures = 4;
/// A router stays in recovery while any of its VCs has made no progress
/// for more than this many cycles (independent of probe_threshold, so
/// aggressive probing cannot livelock the exit); while any router is in
/// recovery, the chip-wide injection gate stays asserted.
inline constexpr Cycle kExitBlockWindow = 512;

/// Per-router protocol agent.
class DeadlockAgent {
 public:
  DeadlockAgent(NodeId self, Cycle probe_threshold, Cycle probe_backoff,
                Cycle probe_timeout = 128);

  // --- Rule 1 -----------------------------------------------------------
  /// The VC-independent half of should_probe(): not recovering, no live
  /// probe inside its timeout, and past the backoff since the last one.
  /// Routers test it once per cycle before walking their blocked VCs.
  bool may_probe(Cycle now) const {
    if (recovery_mode_) return false;  // Already recovering.
    if (outstanding_.has_value() &&
        now - outstanding_since_ <= probe_timeout_) {
      return false;  // One live probe at a time.
    }
    // No outstanding probe, or it was discarded along a non-deadlocked
    // path and timed out: a fresh probe may launch, subject to backoff.
    return !(ever_probed_ && now < last_probe_cycle_ + probe_backoff_);
  }
  /// Whether a VC blocked for `blocked_cycles` should launch a probe now.
  bool should_probe(Cycle blocked_cycles, Cycle now) const {
    return blocked_cycles > probe_threshold_ && may_probe(now);
  }
  /// Mints a new probe originating here; remembers it as outstanding.
  ProbeSignal make_probe(PortId target_port, VcId target_vc, Cycle now);

  // --- Rule 2 -----------------------------------------------------------
  /// Classifies an incoming probe. `target_blocked` is whether the named
  /// buffer is blocked at this node (the router determines this), and
  /// recovery mode counts as blocked per Rule 2.
  ProbeAction on_probe(const ProbeSignal& p, bool target_blocked) const;
  /// Records that a probe was seen and forwarded (needed for Rule 3 and to
  /// route the later activation along the same chain).
  void remember_forwarded_probe(const ProbeSignal& p, PortId forwarded_to,
                                PortId next_in_port, VcId next_in_vc);

  // --- Probe return / activation ----------------------------------------
  /// The origin's own probe came back. Returns true if it should trigger
  /// an activation (false if recovery was already activated by a peer —
  /// Rule 4 says the stale probe is discarded).
  bool on_probe_returned(const ProbeSignal& p);

  /// Rule 3/4: handles an incoming activation. Returns the output port to
  /// forward the activation to (following the remembered probe chain), or
  /// nullopt if the activation is discarded or terminates here.
  /// Sets recovery mode as a side effect when the activation is valid.
  std::optional<PortId> on_activation(const ActivationSignal& a);

  /// The origin's activation completed the loop: the origin itself enters
  /// recovery mode ("the sender node switches to the deadlock recovery
  /// mode after the activation signal returns").
  void on_activation_returned(const ActivationSignal& a);

  // --- Recovery mode ----------------------------------------------------
  bool in_recovery() const { return recovery_mode_; }
  void enter_recovery();
  void exit_recovery();

  bool waiting_for_probe() const { return outstanding_.has_value(); }
  /// Id of the in-flight probe, if any (routers GC per-probe bookkeeping
  /// for every id except this one — a live probe's return still needs it).
  const std::optional<std::uint32_t>& outstanding_probe() const {
    return outstanding_;
  }
  NodeId self() const { return self_; }
  Cycle probe_threshold() const { return probe_threshold_; }
  Cycle probe_timeout() const { return probe_timeout_; }

  /// Consecutive probes that expired unreturned since the last local
  /// progress — the trigger for the fallback self-recovery (a dependency
  /// chain ending in a cycle the origin is not part of never returns a
  /// probe).
  int failed_probes() const { return failed_probes_; }
  /// The router observed local forward progress; blocked-ness so far was
  /// congestion, not deadlock.
  void note_progress() { failed_probes_ = 0; }

  // Accounting.
  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t probes_discarded() const { return probes_discarded_; }
  std::uint64_t deadlocks_confirmed() const { return deadlocks_confirmed_; }
  std::uint64_t recoveries_entered() const { return recoveries_entered_; }

 private:
  struct SeenProbe {
    NodeId origin;
    std::uint32_t probe_id;
    PortId forwarded_to;
    PortId next_in_port;
    VcId next_in_vc;
  };

  const SeenProbe* find_seen(NodeId origin, std::uint32_t id) const;

  NodeId self_;
  Cycle probe_threshold_;
  Cycle probe_backoff_;
  Cycle probe_timeout_;
  Cycle outstanding_since_ = 0;
  Cycle last_probe_cycle_ = 0;
  bool ever_probed_ = false;
  std::uint32_t next_probe_id_ = 1;
  std::optional<std::uint32_t> outstanding_;  ///< Our in-flight probe id.
  int failed_probes_ = 0;
  bool recovery_mode_ = false;
  std::vector<SeenProbe> seen_;  ///< Probes relayed through this node.

  mutable std::uint64_t probes_discarded_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t deadlocks_confirmed_ = 0;
  std::uint64_t recoveries_entered_ = 0;
};

}  // namespace ftnoc
