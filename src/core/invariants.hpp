#pragma once
// Cycle-level invariant monitor (DESIGN.md §4.8).
//
// The paper states its correctness claims as invariants — Eq. (1)'s
// buffering bound for guaranteed deadlock recovery (§3.2), the probe
// protocol's no-false-positive guarantee (§3.2.2), flit-exact
// retransmission (§3.1) — and PR 3's cycle kernel added implementation
// invariants of its own (work-mask/state agreement, running occupancy
// counters). This monitor checks all of them every cycle while a run is
// flagged with `SimConfig::check_invariants`.
//
// The monitor is a pure observer: it draws no randomness, charges no
// energy, and touches no simulation state, so attaching it cannot change
// behaviour (the golden digests pin this). The routers and the network
// feed it events and run its structural walks; on a violation it emits a
// structured diagnostic through common/log — cycle, router, port, vc,
// invariant id, detail — and aborts (the fuzz harness switches it to
// count-and-continue instead).
//
// Checked invariants:
//  * flit conservation — injected = ejected + in-flight + dropped −
//    rollback-restored, where in-flight spans input buffers, the 4-stage
//    ST registers, link wires and the retransmission barrels' pending
//    regions;
//  * credit conservation — per directed link and VC, sender credits +
//    credits bound to in-flight/rolled-back flits + credits on the return
//    wire + receiver occupancy account for exactly the buffer depth
//    (drops to an upper bound when a loss process — link errors with HBH,
//    unprotected handshakes — can legitimately consume instances);
//  * work-mask agreement — a clear in_work_/out_work_ bit proves the VC
//    idle, a set bit proves it busy (the PR 3 active-list contract);
//  * occupancy counters — the per-port input occupancy counters and
//    staged_count_ match a from-scratch recount;
//  * receive-sequence monotonicity — after the HBH drop window and any
//    replay, a receiver still observes every packet's flits in strictly
//    increasing seq order (gated off when lost NACKs are possible);
//  * probe lifecycle — recovery only engages at a probe's origin after
//    that probe returned, at a router that relayed the probe, or through
//    the configured fallback (Rules 1-4);
//  * Eq. (1) — re-evaluated with the engaging router's actual buffer
//    sizes whenever recovery engages;
//  * dead-link traversal — once a router reports a port hard-dead (§4.9),
//    the outgoing link wire never again carries a flit;
//  * packet records — every ejected flit finds its packet's live record.

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/flit.hpp"

namespace ftnoc {

enum class InvariantId : std::uint8_t {
  kFlitConservation,
  kCreditConservation,
  kWorkMaskAgreement,
  kOccupancyCounter,
  kStagedRegister,
  kSequenceMonotonic,
  kProbeLifecycle,
  kRecoveryBufferBound,
  kDeadLinkTraversal,
  /// Every ejected flit finds its packet's live record in the network's
  /// PacketTable (DESIGN.md §4.11): records open at creation and close
  /// at delivery, so a miss is a duplicate or a never-created packet.
  kPacketRecord,
};

const char* to_string(InvariantId id);

/// How a router came to enter recovery mode (probe-lifecycle legality).
enum class RecoveryTrigger : std::uint8_t {
  kActivationReturned,  ///< Origin: its own activation completed the loop.
  kActivationRelay,     ///< A relay of the probe received the activation.
  kFallback,            ///< Unilateral entry after repeated probe expiry.
};

class InvariantMonitor {
 public:
  explicit InvariantMonitor(const SimConfig& cfg);

  // --- Violation sink -----------------------------------------------------
  /// Logs the structured diagnostic and aborts (or counts, for the fuzz
  /// harness). `port`/`vc` may be -1 when the invariant is not localized.
  void fail(InvariantId id, Cycle now, NodeId router, int port, int vc,
            const std::string& detail);
  void set_abort_on_violation(bool v) { abort_on_violation_ = v; }
  std::uint64_t violations() const { return violations_; }
  /// First violation's diagnostic line (divergence triage).
  const std::string& first_violation() const { return first_violation_; }

  // --- Flit-conservation ledger -------------------------------------------
  void on_injected() { ++injected_; }
  void on_ejected() { ++ejected_; }
  void on_dropped() { ++dropped_; }
  /// `n` flits moved back from a retransmission barrel's sent region to
  /// its pending region by a NACK rollback (each re-materializes a live
  /// instance whose wire copy the receiver dropped).
  void on_restored(int n) { restored_ += static_cast<std::uint64_t>(n); }
  std::uint64_t injected() const { return injected_; }
  std::uint64_t ejected() const { return ejected_; }
  std::uint64_t dropped() const { return dropped_; }

  /// `live` is the network-wide in-flight population counted from actual
  /// state: input buffers + ST registers (minus replay shadows) + link
  /// wires + barrel pending regions.
  void check_flit_conservation(Cycle now, long long live);

  // --- Credit conservation ------------------------------------------------
  /// `total` is the full accounting for one directed link and VC as seen
  /// by the Network walk; must be == depth when the configuration admits
  /// no credit-loss process (strict_credits_), else <= depth.
  void check_credit_sum(Cycle now, NodeId sender, int port, int vc,
                        int total, int depth);

  // --- Receive-sequence monotonicity --------------------------------------
  /// Called for every flit a router accepts into an input buffer (after
  /// the link-protection policy; dropped flits never reach this).
  void on_flit_accepted(Cycle now, NodeId router, int port, const Flit& f);

  // --- Probe lifecycle ----------------------------------------------------
  void on_probe_minted(NodeId origin, std::uint32_t probe_id);
  void on_probe_forwarded(NodeId relay, NodeId origin, std::uint32_t probe_id);
  void on_probe_confirmed(Cycle now, NodeId origin, std::uint32_t probe_id);
  /// `tx_size`/`rtx_size` are the engaging router's per-VC transmission
  /// and retransmission buffer depths for the Eq. (1) re-check.
  void on_recovery_entered(Cycle now, NodeId router, RecoveryTrigger trigger,
                           NodeId origin, std::uint32_t probe_id,
                           int tx_size, int rtx_size);

 private:
  struct StreamState {
    bool open = false;
    PacketId pid = 0;
    std::uint8_t next_seq = 0;
  };
  StreamState& stream(NodeId router, int port, int vc);

  SimConfig cfg_;
  bool abort_on_violation_ = true;
  bool seq_check_ = false;
  bool strict_credits_ = false;

  std::uint64_t violations_ = 0;
  std::string first_violation_;

  std::uint64_t injected_ = 0;
  std::uint64_t ejected_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t restored_ = 0;

  // One receive-stream tracker per (router, input port, vc).
  std::vector<StreamState> streams_;

  // Probe lifecycle. Minting is single-outstanding per origin (the agent
  // tracks one `outstanding_` id), so the latest mint is all a *return*
  // can legally reference. Relays and confirmations are not: the agent
  // remembers a bounded list of relayed probes (DeadlockAgent::seen_) and
  // may legally act on an activation for any of them — a router can relay
  // a newer probe from the same origin while the older probe's activation
  // is still circulating the cycle — so those are tracked as bounded
  // recent-id lists, sized to never forget before the agent does.
  struct ProbeRecord {
    std::uint32_t id = 0;
    bool valid = false;
  };
  struct RecentIds {
    std::vector<std::uint32_t> ids;  ///< Oldest first, ≤ kMaxRecentProbes.
  };
  static constexpr std::size_t kMaxRecentProbes = 64;
  static void remember(RecentIds& r, std::uint32_t id);
  static bool contains(const RecentIds& r, std::uint32_t id);
  std::vector<ProbeRecord> minted_;   ///< Per origin: latest minted probe.
  std::vector<RecentIds> confirmed_;  ///< Per origin: returned probes.
  std::vector<RecentIds> relayed_;    ///< Per (relay, origin): relayed probes.
};

}  // namespace ftnoc
