#include "core/deadlock.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ftnoc {

DeadlockAgent::DeadlockAgent(NodeId self, Cycle probe_threshold,
                             Cycle probe_backoff, Cycle probe_timeout)
    : self_(self),
      probe_threshold_(probe_threshold),
      probe_backoff_(probe_backoff),
      probe_timeout_(probe_timeout) {
  FTNOC_CHECK(probe_threshold >= 1);
  FTNOC_CHECK(probe_timeout >= 1);
}

ProbeSignal DeadlockAgent::make_probe(PortId target_port, VcId target_vc,
                                      Cycle now) {
  if (outstanding_.has_value()) {
    // The previous probe expired unreturned.
    ++failed_probes_;
  }
  ProbeSignal p;
  p.origin = self_;
  p.probe_id = next_probe_id_++;
  p.in_port = target_port;
  p.in_vc = target_vc;
  outstanding_ = p.probe_id;
  outstanding_since_ = now;
  last_probe_cycle_ = now;
  ever_probed_ = true;
  ++probes_sent_;
  return p;
}

ProbeAction DeadlockAgent::on_probe(const ProbeSignal& p,
                                    bool target_blocked) const {
  if (p.origin == self_) {
    return ProbeAction::kReturnToOrigin;
  }
  // Rule 2: forward iff the named buffer is blocked here, or this node is
  // already in deadlock recovery mode.
  if (target_blocked || recovery_mode_) {
    return ProbeAction::kForward;
  }
  ++probes_discarded_;
  return ProbeAction::kDiscard;
}

void DeadlockAgent::remember_forwarded_probe(const ProbeSignal& p,
                                             PortId forwarded_to,
                                             PortId next_in_port,
                                             VcId next_in_vc) {
  // Refresh rather than duplicate if the same probe loops through twice
  // (cannot normally happen on a simple cycle, but is harmless to handle).
  for (auto& s : seen_) {
    if (s.origin == p.origin && s.probe_id == p.probe_id) {
      s.forwarded_to = forwarded_to;
      s.next_in_port = next_in_port;
      s.next_in_vc = next_in_vc;
      return;
    }
  }
  seen_.push_back({p.origin, p.probe_id, forwarded_to, next_in_port,
                   next_in_vc});
  // Bound the memory: ancient entries are useless once their activation
  // window has long passed.
  constexpr std::size_t kMaxSeen = 64;
  if (seen_.size() > kMaxSeen) seen_.erase(seen_.begin());
}

const DeadlockAgent::SeenProbe* DeadlockAgent::find_seen(
    NodeId origin, std::uint32_t id) const {
  for (const auto& s : seen_) {
    if (s.origin == origin && s.probe_id == id) return &s;
  }
  return nullptr;
}

bool DeadlockAgent::on_probe_returned(const ProbeSignal& p) {
  if (!outstanding_ || *outstanding_ != p.probe_id) {
    // Stale or duplicate return.
    return false;
  }
  outstanding_.reset();
  failed_probes_ = 0;
  if (recovery_mode_) {
    // Rule 4: a peer's activation got here first; discard our probe.
    return false;
  }
  ++deadlocks_confirmed_;
  return true;
}

std::optional<PortId> DeadlockAgent::on_activation(
    const ActivationSignal& a) {
  // Rule 3: only meaningful if we relayed this origin's probe earlier.
  const SeenProbe* s = find_seen(a.origin, a.probe_id);
  if (s == nullptr) {
    return std::nullopt;
  }
  // Rule 4 (and the plain case): switch to recovery mode.
  enter_recovery();
  if (outstanding_) {
    // Our own probe will be discarded when it returns (on_probe_returned
    // checks recovery_mode_). Keep it outstanding so the return is eaten.
  }
  return s->forwarded_to;
}

void DeadlockAgent::on_activation_returned(const ActivationSignal& a) {
  FTNOC_CHECK(a.origin == self_);
  enter_recovery();
}

void DeadlockAgent::enter_recovery() {
  if (!recovery_mode_) {
    recovery_mode_ = true;
    failed_probes_ = 0;
    ++recoveries_entered_;
  }
}

void DeadlockAgent::exit_recovery() {
  recovery_mode_ = false;
  // Forget relayed probes from the resolved episode so a stale activation
  // cannot re-trigger recovery spuriously.
  seen_.clear();
  outstanding_.reset();
}

}  // namespace ftnoc
