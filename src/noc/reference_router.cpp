#include "noc/reference_router.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/logic_error_model.hpp"
#include "noc/digest.hpp"

// This file is a deliberate transliteration of router.cpp with every piece
// of PR 3 derived state removed (see reference_router.hpp). When editing
// router behaviour, mirror the change here — the differential fuzz harness
// exists to catch the two drifting apart.

namespace ftnoc {
namespace {
constexpr PortId kLocalPort = static_cast<PortId>(Direction::kLocal);
}

ReferenceRouter::ReferenceRouter(NodeId id, const SimConfig& cfg,
                                 const Topology& topo, FaultInjector* faults,
                                 power::EnergyMeter* meter,
                                 StatsCollector* stats)
    : id_(id),
      cfg_(cfg),
      topo_(topo),
      num_vcs_(cfg.num_vcs),
      faults_(faults),
      meter_(meter),
      stats_(stats),
      ac_(kNumDirections, cfg.num_vcs),
      agent_(id, cfg.deadlock.probe_threshold, cfg.deadlock.probe_backoff,
             cfg.deadlock.probe_timeout),
      va_arbs_(kNumDirections * cfg.num_vcs, kNumDirections * cfg.num_vcs),
      sa_in_arbs_(kNumDirections, cfg.num_vcs),
      sa_out_arbs_(kNumDirections, kNumDirections),
      replay_arbs_(kNumDirections, cfg.num_vcs) {
  const int pv = num_ports_ * num_vcs_;
  FTNOC_CHECK(pv <= 32);  // VA request masks are 32-bit input-gid sets.
  inputs_.resize(static_cast<std::size_t>(pv));
  outputs_.resize(static_cast<std::size_t>(pv));
  drop_until_.assign(static_cast<std::size_t>(pv), 0);
  va_rotation_.assign(static_cast<std::size_t>(pv), 0);

  const bool use_rtx =
      cfg_.protection == LinkProtection::kHbh || cfg_.deadlock.enable_recovery;
  for (PortId p = 0; p < num_ports_; ++p) {
    for (VcId v = 0; v < num_vcs_; ++v) {
      auto& out = ovc(p, v);
      if (p == kLocalPort) {
        out.credits = 1 << 28;
      } else {
        out.credits = cfg_.vc_buffer_depth;
        if (use_rtx) out.rtx.emplace(cfg_.retransmission_depth);
      }
    }
  }
}

void ReferenceRouter::connect(PortId p, Wire* in, Wire* out) {
  FTNOC_CHECK(p < num_ports_);
  in_wires_[p] = in;
  out_wires_[p] = out;
}

bool ReferenceRouter::port_has_neighbor(PortId p) const {
  if (p == kLocalPort) return false;
  return topo_.has_neighbor(id_, static_cast<Direction>(p));
}

bool ReferenceRouter::port_usable(PortId p) const {
  return port_has_neighbor(p) && !link_dead_[p];
}

void ReferenceRouter::fail_link(PortId p) {
  FTNOC_CHECK(p < num_ports_ && p != kLocalPort);
  link_dead_[p] = true;
}

void ReferenceRouter::begin_link_drain(PortId p, Cycle now) {
  FTNOC_CHECK(p < num_ports_ && p != kLocalPort);
  if (link_dead_[p] || (draining_ & port_bit(p)) != 0) return;
  draining_ |= port_bit(p);
  for (int g = 0; g < num_ports_ * num_vcs_; ++g) {
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.state != VcState::kVaWait) continue;
    if (!mask_has(vc.candidates, p)) continue;
    vc.candidates &= static_cast<PortMask>(~port_bit(p));
    if (vc.candidates == 0) {
      vc.state = VcState::kRouting;
      vc.state_since = now;
      if (stats_) stats_->count(Counter::packets_rerouted);
    }
  }
  // A registered deadlock waiter with none of its flits absorbed into the
  // barrel is a pure reservation on the dying port: cancel it and re-home
  // the packet, mirroring Router::begin_link_drain. (The reference model
  // never applies test mutations, so the fix is unconditional here.)
  for (int v = 0; v < num_vcs_; ++v) {
    auto& out = ovc(p, static_cast<VcId>(v));
    if (!out.has_waiter) continue;
    if (out.rtx && out.rtx->contains_packet(out.waiter_pid)) continue;
    const int wg = out.waiter_gid;
    out.has_waiter = false;
    auto& wvc = inputs_[static_cast<std::size_t>(wg)];
    if (wvc.state == VcState::kVaReserved && wvc.out_port == p &&
        wvc.out_vc == static_cast<VcId>(v)) {
      wvc.state = VcState::kRouting;
      wvc.candidates = 0;
      wvc.out_port = kInvalidPort;
      wvc.out_vc = kInvalidVc;
      wvc.state_since = now;
      if (stats_) stats_->count(Counter::packets_rerouted);
    }
  }
}

void ReferenceRouter::rehome_stale_routes() {
  const std::uint32_t e = topo_.route_epoch();
  if (e == route_epoch_seen_) return;
  route_epoch_seen_ = e;
  for (int g = 0; g < num_ports_ * num_vcs_; ++g) {
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.state != VcState::kVaWait || vc.buf.empty()) continue;
    vc.candidates = route(topo_, cfg_.routing, id_, vc.buf.front().dest);
  }
}

void ReferenceRouter::charge(power::EnergyEvent e, std::uint64_t times) {
  if (meter_) meter_->charge(e, times);
}

void ReferenceRouter::step(Cycle now) {
  // Drain-to-kill completion (§4.9), mirrored from the optimized kernel
  // but recomputing idleness from scratch instead of out_work_.
  if (draining_ != 0) {
    for (std::uint32_t dm = draining_; dm != 0; dm &= dm - 1) {
      const PortId p = static_cast<PortId>(std::countr_zero(dm));
      bool busy = staged_[p].has_value();
      for (VcId v = 0; !busy && v < num_vcs_; ++v) {
        const auto& out = ovc(p, v);
        busy = out.allocated || out.has_waiter ||
               (out.rtx && out.rtx->occupancy() > 0);
      }
      if (busy) continue;
      link_dead_[p] = true;
      draining_ &= static_cast<std::uint8_t>(~port_bit(p));
    }
  }
  // Online reconfiguration (§4.12), mirrored from the optimized kernel.
  rehome_stale_routes();
  // On an idle router every phase is a no-op; the differential comparison
  // against the event-scheduled optimized kernel checks that.
  std::fill(port_busy_.begin(), port_busy_.end(), false);
  phase_maintenance(now);
  phase_receive(now);
  switch (cfg_.pipeline_stages) {
    case 1:
      phase_rt(now);
      phase_va(now);
      phase_replay_and_switch(now);
      break;
    case 2:
      phase_replay_and_switch(now);
      phase_rt(now);
      phase_va(now);
      break;
    default:
      phase_replay_and_switch(now);
      phase_va(now);
      phase_rt(now);
      break;
  }
  phase_deadlock(now);
  maybe_release_outputs(now);
}

void ReferenceRouter::phase_maintenance(Cycle now) {
  if (!outbox_.empty()) flush_outbox();

  for (auto& out : outputs_) {
    if (out.rtx && out.rtx->occupancy() > 0) out.rtx->retire_expired(now);
  }

  for (PortId p = 0; p < num_ports_; ++p) {
    Wire* w = out_wires_[p];
    if (w == nullptr) continue;
    if (w->credit.empty() && !w->nack.peek()) continue;
    for (const Credit& c : w->credit.read()) {
      if (faults_ && faults_->upset_handshake()) {
        if (cfg_.tmr_handshaking) {
          if (stats_) stats_->count(Counter::handshake_errors_corrected);
        } else {
          if (stats_) stats_->count(Counter::unprotected_errors);
          continue;
        }
      }
      auto& out = ovc(p, c.vc);
      ++out.credits;
      FTNOC_CHECK(out.credits <= cfg_.vc_buffer_depth);
    }
    if (auto nack = w->nack.read()) {
      if (faults_ && faults_->upset_handshake()) {
        if (cfg_.tmr_handshaking) {
          if (stats_) stats_->count(Counter::handshake_errors_corrected);
        } else {
          if (stats_) stats_->count(Counter::unprotected_errors);
          nack = nullptr;
        }
      }
      if (nack) {
        auto& out = ovc(p, nack->vc);
        FTNOC_CHECK(out.rtx.has_value());
        const int n = out.rtx->on_nack();
        if (mon_) mon_->on_restored(n);
        if (staged_[p] && staged_[p]->vc == nack->vc) {
          const Flit& s = staged_[p]->stored;
          // Scan the whole pending region, not just the front: the
          // rollback above may have queued older flits ahead of a staged
          // replay's un-consumed entry (see router.cpp).
          const bool still_pending =
              out.rtx->pending_contains(s.packet_id, s.seq);
          if (!still_pending) out.rtx->push_pending_back(s);
          staged_[p].reset();
        }
        if (stats_) {
          stats_->count(Counter::link_retransmission_events);
          stats_->count(Counter::link_flits_retransmitted,
                        static_cast<std::uint64_t>(n));
        }
      }
    }
  }

  for (PortId p = 0; p < num_ports_; ++p) {
    if (staged_[p]) {
      FTNOC_CHECK(out_wires_[p] != nullptr);
      finalize_transmission(p, staged_[p]->vc, staged_[p]->stored, now);
      out_wires_[p]->write(staged_[p]->wire);
      staged_[p].reset();
    }
  }

  for (std::size_t i = 0; i < pending_nacks_.size();) {
    if (pending_nacks_[i].send_at <= now) {
      Wire* w = in_wires_[pending_nacks_[i].port];
      FTNOC_CHECK(w != nullptr);
      FTNOC_CHECK(w->nack.can_write());
      w->write(NackMsg{pending_nacks_[i].vc});
      charge(power::EnergyEvent::kNackSignal);
      pending_nacks_.erase(pending_nacks_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void ReferenceRouter::phase_receive(Cycle now) {
  for (PortId p = 0; p < num_ports_; ++p) {
    Wire* w = in_wires_[p];
    if (w == nullptr) continue;
    if (w->flit.peek()) {
      handle_incoming_flit(p, *w->flit.read(), now);
    }
    if (w->probe.peek()) {
      handle_probe(p, *w->probe.read(), now);
    }
    if (w->activation.peek()) {
      handle_activation(*w->activation.read(), now);
    }
  }
}

void ReferenceRouter::handle_incoming_flit(PortId p, Flit f, Cycle now) {
  if (p != kLocalPort) {
    if (faults_) faults_->maybe_corrupt_link(f);
    switch (cfg_.protection) {
      case LinkProtection::kHbh: {
        if (now <= drop_until_[gid(p, f.vc)]) {
          if (stats_) stats_->count(Counter::flits_dropped);
          if (mon_) mon_->on_dropped();
          return;
        }
        charge(power::EnergyEvent::kEccCheck);
        const FlitCheck c = checker_.check(f);
        const bool must_retransmit =
            c == FlitCheck::kUncorrectable ||
            (cfg_.ecc_detect_only && c == FlitCheck::kCorrected);
        if (must_retransmit) {
          if (stats_) stats_->count(Counter::nacks_sent);
          pending_nacks_.push_back({p, f.vc, now + 1});
          // The reference model never applies test mutations: a 4-stage
          // sender always gets the full 3-cycle drop window.
          drop_until_[gid(p, f.vc)] =
              now + (cfg_.pipeline_stages == 4 ? 3 : 2);
          if (mon_) mon_->on_dropped();
          return;
        }
        if (c == FlitCheck::kCorrected) {
          if (stats_) stats_->count(Counter::link_single_corrected);
        }
        break;
      }
      case LinkProtection::kFec: {
        charge(power::EnergyEvent::kEccCheck);
        const FlitCheck c = checker_.check(f);
        if (c == FlitCheck::kCorrected) {
          if (stats_) stats_->count(Counter::link_single_corrected);
        }
        break;
      }
      case LinkProtection::kE2e:
      case LinkProtection::kNone:
        break;
    }
  }
  accept_flit(p, std::move(f), now);
}

void ReferenceRouter::accept_flit(PortId p, Flit f, Cycle now) {
  auto& vc = ivc(p, f.vc);
  // Admission: every VC owns a private vc_buffer_depth-flit buffer. The
  // sender credit protocol guarantees a free slot at every arrival
  // (DESIGN.md §4.11), hence CHECK, not drop.
  FTNOC_CHECK(static_cast<int>(vc.buf.size()) < cfg_.vc_buffer_depth);
  f.arrived_stamp = arrival_stamp(now);
  if (mon_) {
    if (p == kLocalPort) mon_->on_injected();
    mon_->on_flit_accepted(now, id_, p, f);
  }
  vc.buf.push_back(std::move(f));
  charge(power::EnergyEvent::kBufferWrite);
}

void ReferenceRouter::phase_replay_and_switch(Cycle now) {
  // (a) Retransmissions and absorbed-flit transmissions take priority.
  for (PortId o = 0; o < num_ports_; ++o) {
    if (o == kLocalPort || out_wires_[o] == nullptr) continue;
    if (cfg_.pipeline_stages == 4 && staged_[o].has_value()) continue;
    std::uint32_t mask = 0;
    for (VcId v = 0; v < num_vcs_; ++v) {
      auto& out = ovc(o, v);
      if (!out.rtx || !out.rtx->has_pending()) continue;
      if (!out.allocated ||
          out.rtx->front_pending().packet_id != out.owner_pid) {
        continue;
      }
      if (out.rtx->front_pending_credit_held() || can_consume_credit(o, v)) {
        mask |= (1u << v);
      }
    }
    if (mask == 0) continue;
    const int v = replay_arbs_.at(o).arbitrate(mask);
    auto& out = ovc(o, static_cast<VcId>(v));
    const bool credit_held = out.rtx->front_pending_credit_held();
    Flit f = out.rtx->front_pending();
    charge(power::EnergyEvent::kRetransmission);
    transmit(o, static_cast<VcId>(v), std::move(f), now,
             /*consume_credit=*/!credit_held);
  }

  // (b) SA input stage: each input port nominates one VC.
  std::array<int, kNumDirections> nominee;
  nominee.fill(-1);
  bool any_nominee = false;
  for (PortId p = 0; p < num_ports_; ++p) {
    std::uint32_t mask = 0;
    for (VcId v = 0; v < num_vcs_; ++v) {
      auto& vc = ivc(p, v);
      if (vc.state != VcState::kActive || vc.buf.empty()) continue;
      if (arrived_this_cycle(vc.buf.front(), now)) continue;
      if (now < vc.stall_until) continue;
      const PortId o = vc.out_port;
      if (port_busy_[o]) continue;
      if (o != kLocalPort) {
        if (cfg_.pipeline_stages == 4 && staged_[o].has_value()) continue;
        auto& out = ovc(o, vc.out_vc);
        if (out.rtx && out.rtx->has_pending_for(out.owner_pid)) continue;
        if (!can_consume_credit(o, vc.out_vc)) continue;
      }
      mask |= (1u << v);
    }
    if (mask != 0) {
      nominee[p] = sa_in_arbs_.at(p).arbitrate(mask);
      any_nominee = true;
    }
  }
  if (!any_nominee) return;

  // (c) SA output stage: each output port picks one requesting input port.
  for (PortId o = 0; o < num_ports_; ++o) {
    if (port_busy_[o]) continue;
    std::uint32_t pmask = 0;
    for (PortId p = 0; p < num_ports_; ++p) {
      if (nominee[p] < 0) continue;
      if (ivc(p, static_cast<VcId>(nominee[p])).out_port == o) {
        pmask |= (1u << p);
      }
    }
    if (pmask == 0) continue;
    const int p = sa_out_arbs_.at(o).arbitrate(pmask);
    const auto v = static_cast<VcId>(nominee[p]);
    auto& vc = ivc(static_cast<PortId>(p), v);
    charge(power::EnergyEvent::kSwAllocation);

    bool corrupt_in_flight = false;
    if (faults_ && faults_->upset_sa_grant()) {
      if (cfg_.enable_ac) {
        charge(power::EnergyEvent::kAcCheck);
        if (ac_requires_neighbor_nack(cfg_.pipeline_stages)) {
          charge(power::EnergyEvent::kNackSignal);
        }
        if (stats_) stats_->count(Counter::sa_errors_recovered);
        continue;
      }
      if (stats_) stats_->count(Counter::unprotected_errors);
      corrupt_in_flight = true;
    }

    Flit f = vc.buf.front();
    vc.buf.pop_front();
    charge(power::EnergyEvent::kBufferRead);
    charge(power::EnergyEvent::kCrossbarTraversal);
    const bool tail = is_tail(f.type);
    send_credit(static_cast<PortId>(p), v);
    vc.last_advance = now;

    if (vc.out_port == kLocalPort) {
      eject(f, static_cast<PortId>(p), v, now);
      if (tail) {
        ovc(kLocalPort, vc.out_vc).allocated = false;
      }
    } else {
      transmit(vc.out_port, vc.out_vc, std::move(f), now,
               /*consume_credit=*/true, corrupt_in_flight);
    }
    if (tail) {
      release_input_after_tail(static_cast<PortId>(p), v, now);
    }
  }
}

void ReferenceRouter::finalize_transmission(PortId o, VcId v, const Flit& f,
                                            Cycle now) {
  auto& out = ovc(o, v);
  if (is_tail(f.type)) out.tail_sent = true;
  if (!out.rtx) return;
  const bool is_replay = out.rtx->has_pending() &&
                         out.rtx->front_pending().packet_id == f.packet_id &&
                         out.rtx->front_pending().seq == f.seq;
  if (!is_replay && !out.rtx->can_accept(now)) return;
  Flit stored = f;
  if (faults_ && faults_->upset_rtx_copy()) {
    if (cfg_.duplicate_rtx_buffers) {
      if (stats_) stats_->count(Counter::rtx_errors_corrected);
      charge(power::EnergyEvent::kRtxBufferWrite);
    } else {
      stored.flip_code_bit(static_cast<int>(faults_->random_below(36)));
      stored.flip_code_bit(36 + static_cast<int>(faults_->random_below(36)));
    }
  }
  out.rtx->record_transmission(stored, now);
  charge(power::EnergyEvent::kRtxBufferWrite);
}

void ReferenceRouter::transmit(PortId o, VcId v, Flit f, Cycle now,
                               bool consume_credit, bool corrupt_on_wire) {
  FTNOC_CHECK(o != kLocalPort);
  FTNOC_CHECK(out_wires_[o] != nullptr);
  auto& out = ovc(o, v);
  if (consume_credit) {
    FTNOC_CHECK(out.credits > 0);
    --out.credits;
  }
  f.vc = v;
  ++f.hops;
  charge(power::EnergyEvent::kLinkTraversal);
  Flit wire = f;
  if (corrupt_on_wire) {
    wire.flip_code_bit(static_cast<int>(faults_->random_below(36)));
    wire.flip_code_bit(36 + static_cast<int>(faults_->random_below(36)));
  }
  if (cfg_.pipeline_stages == 4) {
    FTNOC_CHECK(!staged_[o].has_value());
    staged_[o] = StagedFlit{std::move(wire), std::move(f), v};
  } else {
    finalize_transmission(o, v, f, now);
    FTNOC_CHECK(out_wires_[o]->flit.can_write());
    out_wires_[o]->write(wire);
  }
  port_busy_[o] = true;
}

void ReferenceRouter::eject(const Flit& f, PortId in_port, VcId in_vc,
                            Cycle now) {
  (void)in_port;
  (void)in_vc;
  if (mon_) mon_->on_ejected();
  if (eject_) eject_(f, now);
}

void ReferenceRouter::send_credit(PortId p, VcId v) {
  progress_this_cycle_ = true;
  if (in_wires_[p]) in_wires_[p]->write(Credit{v});
}

void ReferenceRouter::release_input_after_tail(PortId p, VcId v, Cycle now) {
  auto& vc = ivc(p, v);
  vc.state = VcState::kRouting;
  vc.candidates = 0;
  vc.out_port = kInvalidPort;
  vc.out_vc = kInvalidVc;
  vc.state_since = now;
}

void ReferenceRouter::maybe_release_outputs(Cycle now) {
  for (int og = 0; og < num_ports_ * num_vcs_; ++og) {
    auto& out = outputs_[static_cast<std::size_t>(og)];
    if (!out.allocated || !out.tail_sent) continue;
    if (out.rtx && out.rtx->contains_packet(out.owner_pid)) continue;
    out.allocated = false;
    out.tail_sent = false;
    if (out.has_waiter) {
      out.allocated = true;
      out.owner_gid = out.waiter_gid;
      out.owner_pid = out.waiter_pid;
      out.has_waiter = false;
      auto& wvc = inputs_[out.owner_gid];
      const PortId p = static_cast<PortId>(og / num_vcs_);
      const VcId v = static_cast<VcId>(og % num_vcs_);
      if (wvc.state == VcState::kVaReserved && wvc.out_port == p &&
          wvc.out_vc == v) {
        wvc.state = VcState::kActive;
        wvc.state_since = now;
      }
    }
  }
}

std::optional<std::pair<PortId, VcId>> ReferenceRouter::pick_va_request(
    InputVc& vc, PortId in_port, VcId in_vc, int rotation) {
  const bool escape_mode = cfg_.routing == RoutingAlgorithm::kAdaptiveEscape;
  const bool escape_bound =
      escape_mode && in_port != kLocalPort && in_vc == 0;
  PortId xy_port = kInvalidPort;
  if (escape_mode && !vc.buf.empty()) {
    xy_port = first_port(
        route(topo_, RoutingAlgorithm::kXY, id_, vc.buf.front().dest));
  }

  std::array<std::pair<PortId, VcId>, 32> options;
  int n = 0;
  for (PortId o = 0; o < num_ports_; ++o) {
    if (!mask_has(vc.candidates, o)) continue;
    const bool valid = (o == kLocalPort)
                           ? (!vc.buf.empty() && vc.buf.front().dest == id_)
                           : port_allocatable(o);
    if (!valid) continue;
    for (VcId v = 0; v < num_vcs_; ++v) {
      if (ovc(o, v).allocated || n >= static_cast<int>(options.size())) {
        continue;
      }
      if (escape_mode && o != kLocalPort) {
        if (escape_bound && (v != 0 || o != xy_port)) continue;
        if (!escape_bound && v == 0 && o != xy_port) continue;
      }
      options[n++] = {o, v};
    }
  }
  if (n == 0) return std::nullopt;
  return options[rotation % n];
}

void ReferenceRouter::phase_va(Cycle now) {
  const int pv = num_ports_ * num_vcs_;
  std::vector<std::uint32_t> reqs(static_cast<std::size_t>(pv), 0);
  std::vector<std::pair<PortId, VcId>> want(
      static_cast<std::size_t>(pv), {kInvalidPort, kInvalidVc});
  for (int g = 0; g < pv; ++g) {
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.state != VcState::kVaWait || vc.buf.empty()) continue;
    if (now < vc.stall_until) continue;
    FTNOC_CHECK(is_head(vc.buf.front().type));

    bool any_valid = false;
    bool dead_candidate = false;
    for (PortId o = 0; o < num_ports_; ++o) {
      if (!mask_has(vc.candidates, o)) continue;
      if (o == kLocalPort ? vc.buf.front().dest == id_
                          : port_allocatable(o)) {
        any_valid = true;
        break;
      }
      if (o != kLocalPort && port_has_neighbor(o) &&
          (link_dead_[o] || (draining_ & port_bit(o)) != 0)) {
        dead_candidate = true;
      }
    }
    if (!any_valid) {
      if (cfg_.adaptive_faults && dead_candidate) {
        // Non-minimal escape tier (DESIGN.md §4.12), mirrored from Router.
        const PortMask esc =
            fault_escape_ports(topo_, id_, vc.buf.front().dest);
        FTNOC_CHECK(esc != 0);
        PortMask usable = 0;
        for (PortId o = 0; o < num_ports_; ++o) {
          if (mask_has(esc, o) && o != kLocalPort && port_allocatable(o)) {
            usable |= port_bit(o);
          }
        }
        if (usable == 0) continue;
        vc.candidates = usable;
        if (stats_) stats_->count(Counter::hard_fault_reroutes);
        if (mon_) {
          mon_->on_misroute(now, id_, vc.buf.front().packet_id);
        }
      } else if (dead_candidate &&
                 cfg_.routing != RoutingAlgorithm::kXY) {
        PortMask live = 0;
        for (PortId o = 0; o < num_ports_; ++o) {
          if (o != kLocalPort && port_allocatable(o)) live |= port_bit(o);
        }
        if (live != 0) {
          vc.candidates = live;
          if (stats_) stats_->count(Counter::hard_fault_reroutes);
        } else {
          continue;
        }
      } else {
        if (stats_) stats_->count(Counter::rt_errors_recovered);
        vc.state = VcState::kRouting;
        vc.candidates = 0;
        continue;
      }
    }

    auto req = pick_va_request(vc, static_cast<PortId>(g / num_vcs_),
                               static_cast<VcId>(g % num_vcs_),
                               va_rotation_[static_cast<std::size_t>(g)]++);
    if (!req) continue;
    const int og = gid(req->first, req->second);
    reqs[static_cast<std::size_t>(og)] |= (1u << g);
    want[static_cast<std::size_t>(g)] = *req;
  }

  for (int og = 0; og < pv; ++og) {
    if (reqs[static_cast<std::size_t>(og)] == 0) continue;
    const int g = va_arbs_.at(og).arbitrate(reqs[static_cast<std::size_t>(og)]);
    FTNOC_CHECK(g >= 0);
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    const PortId o = want[static_cast<std::size_t>(g)].first;
    const VcId v = want[static_cast<std::size_t>(g)].second;
    charge(power::EnergyEvent::kVcAllocation);

    if (faults_ && faults_->upset_va_allocation()) {
      run_ac_on_va(static_cast<std::size_t>(g), now);
      continue;
    }

    vc.state = VcState::kActive;
    vc.out_port = o;
    vc.out_vc = v;
    vc.state_since = now;
    auto& out = ovc(o, v);
    out.allocated = true;
    out.owner_gid = static_cast<std::uint16_t>(g);
    out.owner_pid = vc.buf.front().packet_id;
    out.tail_sent = false;
  }
}

void ReferenceRouter::run_ac_on_va(std::size_t g, Cycle now) {
  auto& vc = inputs_[g];
  std::vector<RoutingStateEntry> rt_state;
  std::vector<VaStateEntry> va_state;
  std::vector<SaStateEntry> sa_state;
  rt_state.push_back(
      {static_cast<std::uint16_t>(g), vc.candidates});
  for (int og = 0; og < num_ports_ * num_vcs_; ++og) {
    const auto& out = outputs_[static_cast<std::size_t>(og)];
    if (out.allocated) {
      va_state.push_back({out.owner_gid,
                          static_cast<PortId>(og / num_vcs_),
                          static_cast<VcId>(og % num_vcs_)});
    }
  }

  VaStateEntry bad{static_cast<std::uint16_t>(g), kInvalidPort, kInvalidVc};
  switch (faults_->random_below(3)) {
    case 0:
      bad.out_port = first_port(vc.candidates);
      bad.out_vc = static_cast<VcId>(num_vcs_);
      break;
    case 1: {
      PortId wrong = static_cast<PortId>(faults_->random_below(
          static_cast<std::uint64_t>(num_ports_)));
      while (mask_has(vc.candidates, wrong)) {
        wrong = static_cast<PortId>((wrong + 1) % num_ports_);
      }
      bad.out_port = wrong;
      bad.out_vc = 0;
      break;
    }
    default: {
      bad.out_port = first_port(vc.candidates);
      bad.out_vc = kInvalidVc;
      for (VcId v = 0; v < num_vcs_; ++v) {
        if (ovc(bad.out_port, v).allocated) {
          bad.out_vc = v;
          break;
        }
      }
      if (bad.out_vc == kInvalidVc) {
        bad.out_vc = static_cast<VcId>(num_vcs_);
      }
      break;
    }
  }
  va_state.push_back(bad);

  if (cfg_.enable_ac) {
    const AcReport report = ac_.check(rt_state, va_state, sa_state);
    charge(power::EnergyEvent::kAcCheck);
    FTNOC_CHECK(report.any_error());
    if (stats_) stats_->count(Counter::va_errors_recovered);
    (void)now;
    return;
  }
  if (stats_) stats_->count(Counter::unprotected_errors);
  vc.state = VcState::kDraining;
}

PortMask ReferenceRouter::apply_rt_fault(InputVc& vc, PortMask correct,
                                         Cycle now) {
  if (!faults_ || !faults_->upset_routing()) return correct;

  std::array<PortId, kNumDirections> wrongs{};
  int n = 0;
  for (PortId o = 0; o < num_ports_; ++o) {
    if (!mask_has(correct, o)) wrongs[static_cast<std::size_t>(n++)] = o;
  }
  FTNOC_CHECK(n > 0);
  const PortId w = wrongs[faults_->random_below(static_cast<std::uint64_t>(n))];

  const bool functional = (w != kLocalPort) && port_allocatable(w);
  if (!functional) {
    return port_bit(w);
  }
  if (cfg_.routing == RoutingAlgorithm::kXY) {
    if (stats_) stats_->count(Counter::rt_errors_recovered);
    charge(power::EnergyEvent::kNackSignal);
    charge(power::EnergyEvent::kRetransmission);
    vc.stall_until =
        now + static_cast<Cycle>(rt_recovery_penalty(
                  cfg_.pipeline_stages, /*lookahead=*/cfg_.pipeline_stages <= 2,
                  RtMisrouteKind::kFunctionalDeterministic));
    return correct;
  }
  return port_bit(w);
}

void ReferenceRouter::phase_rt(Cycle now) {
  for (int g = 0; g < num_ports_ * num_vcs_; ++g) {
    auto& vc = inputs_[static_cast<std::size_t>(g)];

    if (vc.state == VcState::kDraining) {
      if (!vc.buf.empty() && !arrived_this_cycle(vc.buf.front(), now)) {
        const Flit f = vc.buf.front();
        vc.buf.pop_front();
        if (mon_) mon_->on_dropped();
        charge(power::EnergyEvent::kBufferRead);
        send_credit(static_cast<PortId>(g / num_vcs_),
                    static_cast<VcId>(g % num_vcs_));
        vc.last_advance = now;
        if (is_tail(f.type)) {
          vc.state = VcState::kRouting;
          vc.state_since = now;
          if (drop_) drop_(f.packet_id);
        }
      }
      continue;
    }

    if (vc.state != VcState::kRouting || vc.buf.empty()) continue;
    if (arrived_this_cycle(vc.buf.front(), now)) continue;
    if (now < vc.stall_until) continue;
    if (!is_head(vc.buf.front().type)) {
      vc.buf.pop_front();
      if (mon_) mon_->on_dropped();
      send_credit(static_cast<PortId>(g / num_vcs_),
                  static_cast<VcId>(g % num_vcs_));
      if (stats_) {
        stats_->count(Counter::flits_dropped);
        stats_->count(Counter::unprotected_errors);
      }
      continue;
    }

    charge(power::EnergyEvent::kRouteCompute);
    const NodeId dest = vc.buf.front().dest;
    const PortMask correct = route(topo_, cfg_.routing, id_, dest);
    FTNOC_CHECK(correct != 0);
    if (topo_.has_faults()) {
      // The reference model never applies the "route_into_dead_link"
      // planted mutation: it always routes fault-aware.
      if (stats_ &&
          (correct & ~route_fault_free(topo_, cfg_.routing, id_, dest)) !=
              0) {
        stats_->count(Counter::hard_fault_reroutes);
      }
    }
    vc.candidates = apply_rt_fault(vc, correct, now);
    vc.state = VcState::kVaWait;
    vc.state_since = now;
  }
}

bool ReferenceRouter::vc_blocked(const InputVc& vc, Cycle now) const {
  if (vc.buf.empty() && vc.state != VcState::kVaReserved) return false;
  if (vc.state != VcState::kActive && vc.state != VcState::kVaWait &&
      vc.state != VcState::kVaReserved) {
    return false;
  }
  return now - vc.last_advance >= 2;
}

void ReferenceRouter::queue_control(PortId port, const ProbeSignal& p) {
  OutboxItem item;
  item.port = port;
  item.is_probe = true;
  item.probe = p;
  outbox_.push_back(item);
}

void ReferenceRouter::queue_control(PortId port, const ActivationSignal& a) {
  OutboxItem item;
  item.port = port;
  item.is_probe = false;
  item.activation = a;
  outbox_.push_back(item);
}

void ReferenceRouter::flush_outbox() {
  for (std::size_t i = 0; i < outbox_.size();) {
    const OutboxItem& item = outbox_[i];
    Wire* w = out_wires_[item.port];
    FTNOC_CHECK(w != nullptr);
    bool sent = false;
    if (item.is_probe) {
      if (w->probe.can_write()) {
        w->write(item.probe);
        sent = true;
      }
    } else {
      if (w->activation.can_write()) {
        w->write(item.activation);
        sent = true;
      }
    }
    if (sent) {
      outbox_.erase(outbox_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

std::optional<std::pair<PortId, VcId>> ReferenceRouter::resolve_chain(
    const InputVc& vc) const {
  if ((vc.state == VcState::kActive || vc.state == VcState::kVaReserved) &&
      vc.out_port != kLocalPort && vc.out_port != kInvalidPort) {
    return std::make_pair(vc.out_port, vc.out_vc);
  }
  if (vc.state == VcState::kVaWait) {
    for (PortId o = 0; o < num_ports_; ++o) {
      if (!mask_has(vc.candidates, o) || o == kLocalPort) continue;
      for (VcId v = 0; v < num_vcs_; ++v) {
        if (ovc(o, v).allocated) return std::make_pair(o, v);
      }
    }
  }
  return std::nullopt;
}

void ReferenceRouter::handle_probe(PortId /*from*/, const ProbeSignal& probe,
                                   Cycle now) {
  charge(power::EnergyEvent::kProbeHop);
  if (probe.hops >
      kProbeTtlPerNode * static_cast<std::uint32_t>(topo_.num_nodes())) {
    if (stats_) stats_->count(Counter::probes_discarded);
    return;
  }
  if (probe.origin == id_) {
    FTNOC_TRACE(trace_fmt("[%llu] r%u probe id=%u RETURNED",
                              (unsigned long long)now, id_, probe.probe_id));
    if (const auto via = agent_.on_probe_returned(probe)) {
      if (stats_) stats_->count(Counter::deadlocks_confirmed);
      if (mon_) mon_->on_probe_confirmed(now, id_, probe.probe_id);
      queue_control(*via, ActivationSignal{id_, probe.probe_id});
    }
    return;
  }

  FTNOC_CHECK(probe.in_port < num_ports_ && probe.in_vc < num_vcs_);
  const auto& target = ivc(probe.in_port, probe.in_vc);
  std::optional<std::pair<PortId, VcId>> fwd;
  if (vc_blocked(target, now) || agent_.in_recovery()) {
    fwd = resolve_chain(target);
  }

  const ProbeAction action = agent_.on_probe(probe, fwd.has_value());
  FTNOC_TRACE(trace_fmt(
      "[%llu] r%u probe(o=%u,id=%u) tgt(%d,%d) act=%d fwd=%d tstate=%d "
      "tcand=%02x tblocked=%d rec=%d",
      (unsigned long long)now, id_, probe.origin, probe.probe_id,
      (int)probe.in_port, (int)probe.in_vc, (int)action,
      fwd ? (int)fwd->first : -1, (int)target.state,
      (unsigned)target.candidates, (int)vc_blocked(target, now),
      (int)agent_.in_recovery()));
  if (action == ProbeAction::kForward && fwd) {
    ProbeSignal next = probe;
    next.hops = probe.hops + 1;
    next.in_port = static_cast<PortId>(
        opposite(static_cast<Direction>(fwd->first)));
    next.in_vc = fwd->second;
    agent_.remember_forwarded_probe(probe, fwd->first, next.in_port,
                                    next.in_vc);
    if (mon_) mon_->on_probe_forwarded(id_, probe.origin, probe.probe_id);
    queue_control(fwd->first, next);
  } else {
    if (stats_) stats_->count(Counter::probes_discarded);
  }
}

void ReferenceRouter::handle_activation(const ActivationSignal& act,
                                        Cycle now) {
  if (act.origin == id_) {
    const bool was = agent_.in_recovery();
    agent_.on_activation_returned(act);
    if (!was && agent_.in_recovery()) {
      if (stats_) stats_->count(Counter::recoveries_entered);
      if (mon_) {
        mon_->on_recovery_entered(
            now, id_, RecoveryTrigger::kActivationReturned, act.origin,
            act.probe_id, cfg_.vc_buffer_depth, cfg_.retransmission_depth);
      }
    }
    return;
  }
  const bool was = agent_.in_recovery();
  const auto fwd = agent_.on_activation(act);
  if (!was && agent_.in_recovery()) {
    if (stats_) stats_->count(Counter::recoveries_entered);
    if (mon_) {
      mon_->on_recovery_entered(
          now, id_, RecoveryTrigger::kActivationRelay, act.origin, act.probe_id,
          cfg_.vc_buffer_depth, cfg_.retransmission_depth);
    }
  }
  if (fwd) {
    charge(power::EnergyEvent::kProbeHop);
    queue_control(*fwd, act);
  }
}

void ReferenceRouter::phase_deadlock(Cycle now) {
  if (progress_this_cycle_) {
    agent_.note_progress();
    progress_this_cycle_ = false;
  }
  if (!cfg_.deadlock.enable_recovery) return;

  for (int g = 0; g < num_ports_ * num_vcs_; ++g) {
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.buf.empty()) continue;
    if (vc.state != VcState::kActive && vc.state != VcState::kVaWait) {
      continue;
    }
    const Cycle blocked = now - vc.last_advance;
    if (!agent_.should_probe(blocked, now)) continue;
    const auto chain = resolve_chain(vc);
    if (!chain) continue;
    const ProbeSignal pr =
        agent_.make_probe(chain->first, chain->second, now);
    if (mon_) mon_->on_probe_minted(id_, pr.probe_id);
    if (agent_.failed_probes() >= kFallbackProbeFailures) {
      agent_.enter_recovery();
      if (stats_) {
        stats_->count(Counter::fallback_recoveries);
        stats_->count(Counter::recoveries_entered);
      }
      if (mon_) {
        mon_->on_recovery_entered(
            now, id_, RecoveryTrigger::kFallback, id_, pr.probe_id,
            cfg_.vc_buffer_depth, cfg_.retransmission_depth);
      }
      break;
    }
    FTNOC_TRACE(trace_fmt(
        "[%llu] r%u PROBE id=%u via port %d target(%d,%d)",
        (unsigned long long)now, id_, pr.probe_id, (int)chain->first,
        (int)pr.in_port, (int)pr.in_vc));
    queue_control(chain->first, pr);
    if (stats_) stats_->count(Counter::probes_sent);
    charge(power::EnergyEvent::kProbeHop);
  }

  if (!agent_.in_recovery()) return;

  std::uint32_t absorbed = 0;
  for (int g = 0; g < num_ports_ * num_vcs_; ++g) {
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.buf.empty() || arrived_this_cycle(vc.buf.front(), now)) continue;
    const auto in_port = static_cast<PortId>(g / num_vcs_);
    const auto in_vc = static_cast<VcId>(g % num_vcs_);

    if (vc.state == VcState::kVaWait) {
      if (now - vc.last_advance < 2) continue;
      PortId o = kInvalidPort;
      for (PortId cand = 0; cand < num_ports_; ++cand) {
        if (cand == kLocalPort || !mask_has(vc.candidates, cand)) continue;
        if (port_allocatable(cand)) {
          o = cand;
          break;
        }
      }
      if (o == kInvalidPort) continue;
      VcId v = kInvalidVc;
      for (VcId cv = 0; cv < num_vcs_; ++cv) {
        auto& cand_out = ovc(o, cv);
        if (cand_out.rtx && cand_out.allocated && !cand_out.has_waiter &&
            cand_out.rtx->free_slots() > 0) {
          v = cv;
          break;
        }
      }
      if (v == kInvalidVc) continue;
      auto& out = ovc(o, v);
      out.has_waiter = true;
      out.waiter_gid = static_cast<std::uint16_t>(g);
      out.waiter_pid = vc.buf.front().packet_id;
      FTNOC_TRACE(trace_fmt(
          "[%llu] r%u register waiter pkt%llu on %d_%d",
          (unsigned long long)now, id_, (unsigned long long)out.waiter_pid,
          (int)o, (int)v));
      vc.state = VcState::kVaReserved;
      vc.out_port = o;
      vc.out_vc = v;
      vc.state_since = now;
    }

    if (vc.state != VcState::kActive && vc.state != VcState::kVaReserved) {
      continue;
    }
    if (vc.out_port == kLocalPort) continue;
    auto& out = ovc(vc.out_port, vc.out_vc);
    if (!out.rtx) continue;
    const bool owns = out.allocated &&
                      out.owner_pid == vc.buf.front().packet_id;
    if (owns && can_consume_credit(vc.out_port, vc.out_vc)) continue;
    const int og = gid(vc.out_port, vc.out_vc);
    if (absorbed & (1u << og)) continue;
    if (out.rtx->free_slots() <= 0) continue;
    if (!owns && !(out.has_waiter && out.waiter_gid == g)) continue;
    if (!owns && out.rtx->free_slots() <= 1) continue;

    Flit f = vc.buf.front();
    vc.buf.pop_front();
    f.vc = vc.out_vc;
    if (owns) {
      out.rtx->absorb_as_owner(f, out.owner_pid);
    } else {
      out.rtx->absorb(f);
    }
    absorbed |= (1u << og);
    charge(power::EnergyEvent::kBufferRead);
    charge(power::EnergyEvent::kRtxBufferWrite);
    send_credit(in_port, in_vc);
    if (stats_) stats_->count(Counter::flits_absorbed);
    vc.last_advance = now;
    if (is_tail(f.type)) {
      release_input_after_tail(in_port, in_vc, now);
    }
  }

  bool pending = false;
  for (const auto& out : outputs_) {
    if (out.rtx && out.rtx->has_pending()) {
      pending = true;
      break;
    }
  }
  bool blocked_long = false;
  for (const auto& in : inputs_) {
    if ((in.state == VcState::kActive || in.state == VcState::kVaWait ||
         in.state == VcState::kVaReserved) &&
        !in.buf.empty() &&
        now - in.last_advance > kExitBlockWindow) {
      blocked_long = true;
      break;
    }
  }
  if (!pending && !blocked_long) {
    agent_.exit_recovery();
    FTNOC_TRACE(trace_fmt("[%llu] r%u exit recovery",
                              (unsigned long long)now, id_));
    if (stats_) stats_->count(Counter::recoveries_exited);
  }
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

int ReferenceRouter::tx_buffer_occupancy() const {
  int n = 0;
  for (const auto& in : inputs_) n += static_cast<int>(in.buf.size());
  return n;
}

int ReferenceRouter::tx_buffer_slots() const {
  int ports = 0;
  for (PortId p = 0; p < num_ports_; ++p) {
    if (in_wires_[p] != nullptr) ++ports;
  }
  return ports * num_vcs_ * cfg_.vc_buffer_depth;
}

int ReferenceRouter::rtx_buffer_occupancy() const {
  int n = 0;
  for (const auto& out : outputs_) {
    if (out.rtx) n += out.rtx->occupancy();
  }
  return n;
}

int ReferenceRouter::rtx_buffer_slots() const {
  int n = 0;
  for (PortId p = 0; p < num_ports_; ++p) {
    if (out_wires_[p] == nullptr) continue;
    for (VcId v = 0; v < num_vcs_; ++v) {
      const auto& out = ovc(p, v);
      if (out.rtx) n += out.rtx->depth();
    }
  }
  return n;
}

int ReferenceRouter::input_buffer_size(PortId p, VcId v) const {
  return static_cast<int>(ivc(p, v).buf.size());
}

int ReferenceRouter::input_port_occupancy(PortId p) const {
  int n = 0;
  for (VcId v = 0; v < num_vcs_; ++v) n += input_buffer_size(p, v);
  return n;
}

long long ReferenceRouter::live_flit_count() const {
  long long n = 0;
  for (const auto& in : inputs_) n += static_cast<long long>(in.buf.size());
  for (PortId p = 0; p < num_ports_; ++p) {
    if (!staged_[p]) continue;
    const Flit& s = staged_[p]->stored;
    const auto& out = ovc(p, staged_[p]->vc);
    const bool shadow = out.rtx && out.rtx->has_pending() &&
                        out.rtx->front_pending().packet_id == s.packet_id &&
                        out.rtx->front_pending().seq == s.seq;
    if (!shadow) ++n;
  }
  for (const auto& out : outputs_) {
    if (out.rtx) n += out.rtx->pending_count();
  }
  return n;
}

int ReferenceRouter::held_credits(PortId p, VcId v) const {
  const auto& out = ovc(p, v);
  int n = out.credits;
  if (out.rtx) {
    for (int i = 0; i < out.rtx->pending_count(); ++i) {
      if (out.rtx->pending_credit_held(i)) ++n;
    }
  }
  if (staged_[p] && staged_[p]->vc == v) {
    const Flit& s = staged_[p]->stored;
    const bool counted_in_pending =
        out.rtx && out.rtx->has_pending() &&
        out.rtx->front_pending().packet_id == s.packet_id &&
        out.rtx->front_pending().seq == s.seq &&
        out.rtx->pending_credit_held(0);
    if (!counted_in_pending) ++n;
  }
  return n;
}

std::uint64_t ReferenceRouter::state_digest() const {
  digest::Fnv h;
  h.mix(static_cast<std::uint64_t>(id_));
  const int pv = num_ports_ * num_vcs_;
  for (int g = 0; g < pv; ++g) {
    const auto& in = inputs_[static_cast<std::size_t>(g)];
    h.mix(static_cast<std::uint64_t>(in.state));
    h.mix(in.candidates);
    h.mix(static_cast<std::uint64_t>(in.out_port));
    h.mix(static_cast<std::uint64_t>(in.out_vc));
    h.mix(static_cast<std::uint64_t>(in.last_advance));
    h.mix(static_cast<std::uint64_t>(in.stall_until));
    h.mix(static_cast<std::uint64_t>(in.state_since));
    h.mix(in.buf.size());
    for (const Flit& f : in.buf) h.mix_flit(f);

    const auto& out = outputs_[static_cast<std::size_t>(g)];
    h.mix(out.allocated);
    h.mix(out.owner_gid);
    h.mix(out.owner_pid);
    h.mix(out.tail_sent);
    h.mix(static_cast<std::uint64_t>(out.credits));
    h.mix(out.has_waiter);
    h.mix(out.waiter_gid);
    h.mix(out.waiter_pid);
    h.mix(out.rtx.has_value());
    if (out.rtx) {
      h.mix(static_cast<std::uint64_t>(out.rtx->sent_count()));
      for (int i = 0; i < out.rtx->sent_count(); ++i) {
        h.mix_flit(out.rtx->sent_flit(i));
        h.mix(static_cast<std::uint64_t>(out.rtx->sent_time(i)));
      }
      h.mix(static_cast<std::uint64_t>(out.rtx->pending_count()));
      for (int i = 0; i < out.rtx->pending_count(); ++i) {
        h.mix_flit(out.rtx->pending_flit(i));
        h.mix(out.rtx->pending_credit_held(i));
      }
    }
    h.mix(static_cast<std::uint64_t>(drop_until_[static_cast<std::size_t>(g)]));
    h.mix(static_cast<std::uint64_t>(
        va_rotation_[static_cast<std::size_t>(g)]));
    h.mix(static_cast<std::uint64_t>(va_arbs_.at(g).last_grant()));
  }
  for (PortId p = 0; p < num_ports_; ++p) {
    h.mix(staged_[p].has_value());
    if (staged_[p]) {
      h.mix_flit(staged_[p]->wire);
      h.mix_flit(staged_[p]->stored);
      h.mix(static_cast<std::uint64_t>(staged_[p]->vc));
    }
    h.mix(link_dead_[p]);
    h.mix((draining_ & port_bit(p)) != 0);
    h.mix(static_cast<std::uint64_t>(sa_in_arbs_.at(p).last_grant()));
    h.mix(static_cast<std::uint64_t>(sa_out_arbs_.at(p).last_grant()));
    h.mix(static_cast<std::uint64_t>(replay_arbs_.at(p).last_grant()));
  }
  h.mix(pending_nacks_.size());
  for (const auto& nk : pending_nacks_) {
    h.mix(static_cast<std::uint64_t>(nk.port));
    h.mix(static_cast<std::uint64_t>(nk.vc));
    h.mix(static_cast<std::uint64_t>(nk.send_at));
  }
  h.mix(outbox_.size());
  for (const auto& item : outbox_) {
    h.mix(static_cast<std::uint64_t>(item.port));
    h.mix(item.is_probe);
    if (item.is_probe) {
      h.mix_probe(item.probe);
    } else {
      h.mix_activation(item.activation);
    }
  }
  h.mix(agent_.in_recovery());
  h.mix(agent_.waiting_for_probe());
  h.mix(agent_.outstanding_probe().value_or(0));
  h.mix(static_cast<std::uint64_t>(agent_.probe_port()));
  h.mix(static_cast<std::uint64_t>(agent_.failed_probes()));
  h.mix(progress_this_cycle_);
  return h.value();
}

}  // namespace ftnoc
