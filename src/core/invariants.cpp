#include "core/invariants.hpp"

#include <cstdlib>

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/deadlock.hpp"

namespace ftnoc {

const char* to_string(InvariantId id) {
  switch (id) {
    case InvariantId::kFlitConservation: return "flit-conservation";
    case InvariantId::kCreditConservation: return "credit-conservation";
    case InvariantId::kWorkMaskAgreement: return "work-mask-agreement";
    case InvariantId::kOccupancyCounter: return "occupancy-counter";
    case InvariantId::kStagedRegister: return "staged-register";
    case InvariantId::kSequenceMonotonic: return "sequence-monotonic";
    case InvariantId::kProbeLifecycle: return "probe-lifecycle";
    case InvariantId::kRecoveryBufferBound: return "recovery-buffer-bound";
    case InvariantId::kDeadLinkTraversal: return "dead-link-traversal";
    case InvariantId::kPacketRecord: return "packet-record";
  }
  return "?";
}

InvariantMonitor::InvariantMonitor(const SimConfig& cfg) : cfg_(cfg) {
  const std::size_t nodes = static_cast<std::size_t>(cfg.num_nodes());
  streams_.resize(nodes * static_cast<std::size_t>(kNumDirections) * 8);
  minted_.resize(nodes);
  confirmed_.resize(nodes);
  relayed_.resize(nodes * nodes);
  // A lost NACK (unprotected handshake upset) legitimately produces seq
  // gaps and stray flits at a receiver, and an unprotected VA upset can
  // hand two packets the same output VC (§4.3 scenarios (2)/(3)),
  // interleaving them on the downstream input VC by design. Only without
  // either process is receive order a checkable invariant. FEC/E2E/none
  // never drop flits at a link, so NACK loss is moot for them.
  const bool nacks_reliable = cfg.tmr_handshaking ||
                              cfg.faults.handshake_error_rate <= 0.0;
  const bool va_interleaving = !cfg.enable_ac &&
                               cfg.faults.va_error_rate > 0.0;
  seq_check_ = (cfg.protection != LinkProtection::kHbh || nacks_reliable) &&
               !va_interleaving;
  // A dropped flit's credit is unaccounted between the receiver-side drop
  // and the sender-side NACK rollback, and an unprotected handshake upset
  // loses a credit pulse outright — either process turns the per-link
  // credit sum from an equality into an upper bound. An HBH receiver
  // drops on *any* wire corruption, which crosstalk is only one source
  // of: an unprotected SA-grant upset wrecks the flit in the crossbar,
  // and a non-duplicated retransmission-buffer upset wrecks the stored
  // copy that a NACK later replays.
  const bool wire_corruption =
      cfg.faults.link_error_rate > 0.0 ||
      (!cfg.enable_ac && cfg.faults.sa_error_rate > 0.0) ||
      (!cfg.duplicate_rtx_buffers && cfg.faults.rtx_error_rate > 0.0);
  const bool hbh_drops =
      cfg.protection == LinkProtection::kHbh && wire_corruption;
  const bool handshake_loss = !cfg.tmr_handshaking &&
                              cfg.faults.handshake_error_rate > 0.0;
  strict_credits_ = !hbh_drops && !handshake_loss;
}

void InvariantMonitor::fail(InvariantId id, Cycle now, NodeId router,
                            int port, int vc, const std::string& detail) {
  const std::string line =
      "invariant violation [" + std::string(to_string(id)) + "] cycle=" +
      std::to_string(now) + " router=" + std::to_string(router) +
      " port=" + std::to_string(port) + " vc=" + std::to_string(vc) + ": " +
      detail;
  FTNOC_ERROR(line);
  ++violations_;
  if (first_violation_.empty()) first_violation_ = line;
  if (abort_on_violation_) {
    std::abort();
  }
}

void InvariantMonitor::check_flit_conservation(Cycle now, long long live) {
  // injected = ejected + dropped + live − restored, rearranged so both
  // sides stay non-negative.
  const long long ledger = static_cast<long long>(injected_) +
                           static_cast<long long>(restored_) -
                           static_cast<long long>(ejected_) -
                           static_cast<long long>(dropped_);
  if (ledger != live) {
    fail(InvariantId::kFlitConservation, now, kInvalidNode, -1, -1,
         "ledger expects " + std::to_string(ledger) + " live flits, state " +
             "holds " + std::to_string(live) + " (injected=" +
             std::to_string(injected_) + " ejected=" + std::to_string(ejected_) +
             " dropped=" + std::to_string(dropped_) + " restored=" +
             std::to_string(restored_) + ")");
  }
}

void InvariantMonitor::check_credit_sum(Cycle now, NodeId sender, int port,
                                        int vc, int total, int depth) {
  if (total > depth || (strict_credits_ && total != depth)) {
    fail(InvariantId::kCreditConservation, now, sender, port, vc,
         "link credit sum " + std::to_string(total) + " vs buffer depth " +
             std::to_string(depth) +
             (strict_credits_ ? " (loss-free config: must be equal)"
                              : " (lossy config: must not exceed)"));
  }
}

InvariantMonitor::StreamState& InvariantMonitor::stream(NodeId router,
                                                        int port, int vc) {
  const std::size_t idx =
      (static_cast<std::size_t>(router) * kNumDirections +
       static_cast<std::size_t>(port)) * 8 + static_cast<std::size_t>(vc);
  FTNOC_CHECK(idx < streams_.size());
  return streams_[idx];
}

void InvariantMonitor::on_flit_accepted(Cycle now, NodeId router, int port,
                                        const Flit& f) {
  if (!seq_check_) return;
  StreamState& s = stream(router, port, f.vc);
  if (is_head(f.type)) {
    if (s.open) {
      fail(InvariantId::kSequenceMonotonic, now, router, port, f.vc,
           "head of pkt" + std::to_string(f.packet_id) +
               " arrived while pkt" + std::to_string(s.pid) +
               " is still open at seq " + std::to_string(s.next_seq));
    }
    s.pid = f.packet_id;
    s.next_seq = 0;
  } else if (!s.open) {
    fail(InvariantId::kSequenceMonotonic, now, router, port, f.vc,
         "body/tail flit pkt" + std::to_string(f.packet_id) + ".seq" +
             std::to_string(f.seq) + " with no open stream");
  } else if (f.packet_id != s.pid) {
    fail(InvariantId::kSequenceMonotonic, now, router, port, f.vc,
         "flit of pkt" + std::to_string(f.packet_id) +
             " interleaved into open pkt" + std::to_string(s.pid));
  }
  if (f.seq != s.next_seq) {
    fail(InvariantId::kSequenceMonotonic, now, router, port, f.vc,
         "pkt" + std::to_string(f.packet_id) + " delivered seq " +
             std::to_string(f.seq) + ", expected " +
             std::to_string(s.next_seq) +
             " (replay reordered or drop window admitted a stale flit)");
  }
  s.open = !is_tail(f.type);
  s.next_seq = static_cast<std::uint8_t>(f.seq + 1);
  if (!s.open) s.pid = 0;
}

void InvariantMonitor::remember(RecentIds& r, std::uint32_t id) {
  if (contains(r, id)) return;
  r.ids.push_back(id);
  if (r.ids.size() > kMaxRecentProbes) r.ids.erase(r.ids.begin());
}

bool InvariantMonitor::contains(const RecentIds& r, std::uint32_t id) {
  for (const std::uint32_t x : r.ids) {
    if (x == id) return true;
  }
  return false;
}

void InvariantMonitor::on_probe_minted(NodeId origin, std::uint32_t probe_id) {
  minted_[origin] = {probe_id, true};
}

void InvariantMonitor::on_probe_forwarded(NodeId relay, NodeId origin,
                                          std::uint32_t probe_id) {
  remember(relayed_[static_cast<std::size_t>(relay) *
                        static_cast<std::size_t>(cfg_.num_nodes()) +
                    origin],
           probe_id);
}

void InvariantMonitor::on_probe_confirmed(Cycle now, NodeId origin,
                                          std::uint32_t probe_id) {
  const ProbeRecord& m = minted_[origin];
  if (!m.valid || m.id != probe_id) {
    fail(InvariantId::kProbeLifecycle, now, origin, -1, -1,
         "probe id=" + std::to_string(probe_id) +
             " confirmed at origin, but the latest minted probe is " +
             (m.valid ? "id=" + std::to_string(m.id) : "absent"));
  }
  remember(confirmed_[origin], probe_id);
}

void InvariantMonitor::on_recovery_entered(Cycle now, NodeId router,
                                           RecoveryTrigger trigger,
                                           NodeId origin,
                                           std::uint32_t probe_id,
                                           int tx_size, int rtx_size) {
  switch (trigger) {
    case RecoveryTrigger::kActivationReturned: {
      if (!contains(confirmed_[router], probe_id)) {
        fail(InvariantId::kProbeLifecycle, now, router, -1, -1,
             "origin entered recovery for probe id=" +
                 std::to_string(probe_id) +
                 " that never returned to it (no confirmation recorded)");
      }
      break;
    }
    case RecoveryTrigger::kActivationRelay: {
      if (!contains(relayed_[static_cast<std::size_t>(router) *
                                 static_cast<std::size_t>(cfg_.num_nodes()) +
                             origin],
                    probe_id)) {
        fail(InvariantId::kProbeLifecycle, now, router, -1, -1,
             "router entered recovery on activation (origin=" +
                 std::to_string(origin) + ", id=" + std::to_string(probe_id) +
                 ") for a probe it never relayed");
      }
      break;
    }
    case RecoveryTrigger::kFallback:
      static_assert(kFallbackProbeFailures > 0,
                    "fallback recovery needs at least one failed probe");
      break;
  }

  // Eq. (1) with the engaging router's actual buffer sizes. The static
  // validate() gate makes this unreachable for uniform configs; checking
  // it here keeps the guarantee honest if per-node sizing ever lands.
  if (!recovery_buffer_bound_ok({tx_size}, {rtx_size}, cfg_.packet_length)) {
    fail(InvariantId::kRecoveryBufferBound, now, router, -1, -1,
         "recovery engaged with T=" + std::to_string(tx_size) + " R=" +
             std::to_string(rtx_size) + " M=" +
             std::to_string(cfg_.packet_length) +
             " violating Eq. (1): sum(T+R) > M*sum(ceil(T/M))");
  }
}

}  // namespace ftnoc
