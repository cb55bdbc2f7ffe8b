#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/logic_error_model.hpp"
#include "noc/digest.hpp"

namespace ftnoc {
namespace {
constexpr PortId kLocalPort = static_cast<PortId>(Direction::kLocal);
}

Router::Router(NodeId id, const SimConfig& cfg, const Topology& topo,
               FaultInjector* faults, power::EnergyMeter* meter,
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
             cfg.deadlock.probe_timeout) {
  const int pv = num_ports_ * num_vcs_;
  FTNOC_CHECK(pv <= 32);  // Work masks are 32-bit (5 ports x <= 6 VCs).
  const std::size_t bytes = carve_storage(nullptr);
  storage_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  carve_storage(storage_.get());
  // Every input VC owns a private vc_buffer_depth-flit ring in one slab
  // (validate() caps the depth at the ring's 16-bit index range).
  const auto ring = static_cast<std::size_t>(cfg_.vc_buffer_depth);
  for (std::size_t g = 0; g < inputs_.size(); ++g) {
    inputs_[g].buf.bind(in_flit_slab_.data() + g * ring,
                        static_cast<std::uint16_t>(ring));
  }
  state_mask_[static_cast<std::size_t>(VcState::kRouting)] = ~0u >> (32 - pv);

  // Barrels view retransmission_depth slots each of the barrel slab; the
  // local port has none, and rtx_slab_ is empty when no barrel exists.
  const auto rdepth = static_cast<std::size_t>(cfg_.retransmission_depth);
  const bool use_rtx = !rtx_slab_.empty();
  for (PortId p = 0; p < num_ports_; ++p) {
    for (VcId v = 0; v < num_vcs_; ++v) {
      auto& out = ovc(p, v);
      if (p == kLocalPort) {
        // Ejection channel: the PE always sinks flits; model as unbounded
        // credit and no retransmission buffer.
        out.credits = 1 << 28;
      } else {
        out.credits = cfg_.vc_buffer_depth;
        if (use_rtx) {
          orx(gid(p, v)).emplace(
              rtx_slab_.data() + static_cast<std::size_t>(gid(p, v)) * rdepth,
              cfg_.retransmission_depth);
        }
      }
    }
  }
  f_rt_live_ = faults_ != nullptr && cfg_.faults.rt_error_rate > 0.0;
  f_va_live_ = faults_ != nullptr && cfg_.faults.va_error_rate > 0.0;
  f_sa_live_ = faults_ != nullptr && cfg_.faults.sa_error_rate > 0.0;
  f_rtx_live_ = faults_ != nullptr && cfg_.faults.rtx_error_rate > 0.0;
  f_hs_live_ = faults_ != nullptr && cfg_.faults.handshake_error_rate > 0.0;
  const auto plant = parse_test_mutation(cfg_.test_mutation);
  FTNOC_CHECK(plant.has_value());
  mutation_ = *plant;
}

Router::~Router() { std::destroy(out_rtx_.begin(), out_rtx_.end()); }

std::size_t Router::carve_storage(std::byte* block) {
  const auto pv = static_cast<std::size_t>(num_ports_ * num_vcs_);
  std::size_t used = 0;
  // Next suitably aligned run of `n` Ts, left raw.
  const auto carve_raw = [&]<class T>(std::span<T>& out, std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    used = (used + alignof(T) - 1) / alignof(T) * alignof(T);
    if (block != nullptr) {
      out = std::span<T>(reinterpret_cast<T*>(block + used), n);
    }
    used += n * sizeof(T);
  };
  // Next run of `n` Ts, value-initialized from `args`.
  const auto carve = [&]<class T>(std::span<T>& out, std::size_t n,
                                  const auto&... args) {
    carve_raw(out, n);
    if (block != nullptr) {
      for (T& t : out) ::new (&t) T(args...);
    }
  };
  // The flit slabs are most of the block (6,720 bytes at V = 3, T = 4,
  // R = 3), and no slot is read before a flit is written into it.
  carve_raw(in_flit_slab_,
            pv * static_cast<std::size_t>(cfg_.vc_buffer_depth));
  carve_raw(rtx_slab_, cfg_.has_rtx_barrels()
                           ? (pv - static_cast<std::size_t>(num_vcs_)) *
                                 static_cast<std::size_t>(
                                     cfg_.retransmission_depth)
                           : 0);
  carve(inputs_, pv);
  carve(outputs_, pv);
  carve(out_rtx_, pv);
  carve(rtx_retire_at_, pv);
  carve(drop_until_, pv);
  carve(va_rotation_, pv);
  carve(va_reqs_, pv);
  carve(va_want_, pv, kInvalidPort, kInvalidVc);
  carve(va_arbs_, pv, static_cast<int>(pv));
  carve(sa_in_arbs_, static_cast<std::size_t>(num_ports_), num_vcs_);
  carve(sa_out_arbs_, static_cast<std::size_t>(num_ports_), num_ports_);
  carve(replay_arbs_, static_cast<std::size_t>(num_ports_), num_vcs_);
  carve(staged_, cfg_.pipeline_stages == 4
                     ? static_cast<std::size_t>(num_ports_)
                     : 0);
  return used;
}

void Router::connect(PortId p, Wire* in, Wire* out) {
  FTNOC_CHECK(p < num_ports_);
  in_wires_[p] = in;
  out_wires_[p] = out;
  if (in != nullptr) in->fwd_sig = &in_sig_[p];
  if (out != nullptr) out->back_sig = &out_sig_[p];
}

bool Router::port_has_neighbor(PortId p) const {
  if (p == kLocalPort) return false;
  return topo_.has_neighbor(id_, static_cast<Direction>(p));
}

bool Router::port_usable(PortId p) const {
  return port_has_neighbor(p) && !link_dead_[p];
}

void Router::fail_link(PortId p) {
  FTNOC_CHECK(p < num_ports_ && p != kLocalPort);
  link_dead_[p] = true;
}

void Router::begin_link_drain(PortId p, Cycle now) {
  FTNOC_CHECK(p < num_ports_ && p != kLocalPort);
  if (link_dead_[p] || (draining_ & port_bit(p)) != 0) return;
  draining_ |= port_bit(p);
  // Re-home heads still waiting for an output VC on the dying port: strip
  // it from their candidate sets; a head left with no candidates goes back
  // to RT, where the (now fault-aware) route detours it. Established
  // wormholes, replays and registered waiters keep the port until their
  // tails retire — the drain completes only once they have.
  for (std::uint32_t m = in_state(VcState::kVaWait); m != 0; m &= m - 1) {
    const int g = std::countr_zero(m);
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (!mask_has(vc.candidates, p)) continue;
    vc.candidates &= static_cast<PortMask>(~port_bit(p));
    if (vc.candidates == 0) {
      set_state(g, VcState::kRouting);
      vc.state_since = now;
      update_input_work(g);
      if (stats_) stats_->count(Counter::packets_rerouted);
    }
  }
  // A packet already *holding* this port as a registered deadlock waiter
  // would pin out.has_waiter — and with it out_work_ — until its owner
  // retires, and the owner may itself be wedged behind the dying link: the
  // drain then never completes and the packet is stranded in kVaReserved.
  // A waiter none of whose flits have been absorbed into the barrel is a
  // pure reservation: cancel it and re-home the packet exactly like the
  // kVaWait case above. A waiter with absorbed flits is a committed
  // stream; it keeps the port until replayed, like an in-flight wormhole.
  // (The strand_waiter mutation reverts this fix for the fuzz self-test.)
  if (mutation_ != TestMutation::kStrandWaiter) {
    for (int v = 0; v < num_vcs_; ++v) {
      const int og = gid(p, static_cast<VcId>(v));
      auto& out = outputs_[static_cast<std::size_t>(og)];
      if (!out.has_waiter) continue;
      const auto& rtx = out_rtx_[static_cast<std::size_t>(og)];
      if (rtx && rtx->contains_packet(out.waiter_pid)) continue;
      const int wg = out.waiter_gid;
      out.has_waiter = false;
      update_output_work(og);
      auto& wvc = inputs_[static_cast<std::size_t>(wg)];
      if (wvc.state == VcState::kVaReserved && wvc.out_port == p &&
          wvc.out_vc == static_cast<VcId>(v)) {
        set_state(wg, VcState::kRouting);
        wvc.candidates = 0;
        wvc.out_port = kInvalidPort;
        wvc.out_vc = kInvalidVc;
        wvc.state_since = now;
        update_input_work(wg);
        if (stats_) stats_->count(Counter::packets_rerouted);
      }
    }
  }
}

void Router::rehome_stale_routes() {
  const std::uint32_t e = topo_.route_epoch();
  if (e == route_epoch_seen_) return;
  route_epoch_seen_ = e;
  // Every kVaWait head re-routes against the rebuilt distance tables
  // instead of allocating on a stale candidate set; it keeps waiting (the
  // VA re-filters the fresh set next cycle). The live fabric stays
  // connected, so the fresh set is never empty. kVaWait implies the
  // in_work_ bit, which both kernels treat as a mandatory re-tick — so
  // scan and event runs observe every epoch at the same cycle.
  for (std::uint32_t m = in_state(VcState::kVaWait); m != 0; m &= m - 1) {
    const int g = std::countr_zero(m);
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.buf.empty()) continue;
    vc.candidates = route(topo_, cfg_.routing, id_, vc.buf.front().dest);
  }
}

void Router::charge(power::EnergyEvent e, std::uint64_t times) {
  if (meter_) meter_->charge(e, times);
}

WakeInfo Router::take_wake_info() {
  WakeInfo w;
  w.wrote_fwd = wrote_fwd_;
  w.wrote_back = wrote_back_;
  wrote_fwd_ = 0;
  wrote_back_ = 0;
  // The one definition of "has internal work": any of these means next
  // cycle's step() is (or may be) a state-changing one even with no wire
  // traffic. Wire arrivals are covered by the writer's wake masks; a
  // router with neither runs phases that change nothing.
  w.retick = in_work_ != 0 || out_work_ != 0 || staged_count_ != 0 ||
             draining_ != 0 || !pending_nacks_.empty() ||
             !outbox_.empty() || progress_this_cycle_ ||
             agent_.in_recovery();
  return w;
}

void Router::step(Cycle now) {
  // Drain-to-kill completion (§4.9): a draining port goes hard-dead once
  // every output VC on it is idle (no owner, no waiter, empty barrel — the
  // barrel's sent region covers the NACK window, so an empty barrel proves
  // the wire is clear) and nothing is staged toward it.
  if (draining_ != 0) {
    const std::uint32_t vmask = (1u << num_vcs_) - 1u;
    for (std::uint32_t dm = draining_; dm != 0; dm &= dm - 1) {
      const PortId p = static_cast<PortId>(std::countr_zero(dm));
      if (((out_work_ >> (p * num_vcs_)) & vmask) != 0) continue;
      if (staged(p) != nullptr) continue;
      link_dead_[p] = true;
      draining_ &= static_cast<std::uint8_t>(~port_bit(p));
    }
  }
  // Online reconfiguration (§4.12): reconcile in-flight route decisions
  // with the topology's current epoch before any phase allocates on them.
  // No-op (one compare) while the epoch is unchanged.
  rehome_stale_routes();
  std::fill(port_busy_.begin(), port_busy_.end(), false);
  phase_maintenance(now);
  phase_receive(now);
  switch (cfg_.pipeline_stages) {
    case 1:
      // Single-stage router: RT, VA, SA and ST all collapse into one cycle.
      phase_rt(now);
      phase_va(now);
      phase_replay_and_switch(now);
      break;
    case 2:
      // Look-ahead + speculation: RT and VA share a stage.
      phase_replay_and_switch(now);
      phase_rt(now);
      phase_va(now);
      break;
    default:
      // 3-/4-stage: one stage per atomic module (Figure 2). Phase order
      // SA -> VA -> RT gives each module its own cycle.
      phase_replay_and_switch(now);
      phase_va(now);
      phase_rt(now);
      break;
  }
  phase_deadlock(now);
  maybe_release_outputs(now);
}

// ---------------------------------------------------------------------------
// Maintenance: staged output register, control retries, retransmission
// buffer aging, credits and NACKs.
// ---------------------------------------------------------------------------

void Router::phase_maintenance(Cycle now) {
  if (!outbox_.empty()) flush_outbox();

  // Retransmission-barrel aging: only barrels with sent entries
  // (rtx_sent_mask_) can have anything to retire, and the sent region's
  // front deadline (the rtx_retire_at_ mirror) bounds when the oldest
  // entry can expire — before that cycle retire_expired is a provable
  // no-op, so the barrels themselves are not even touched.
  if (rtx_sent_mask_ != 0 && now >= rtx_min_retire_) {
    Cycle nmin = std::numeric_limits<Cycle>::max();
    for (std::uint32_t m = rtx_sent_mask_; m != 0; m &= m - 1) {
      const int og = std::countr_zero(m);
      const Cycle due = rtx_retire_at_[static_cast<std::size_t>(og)];
      if (now < due) {
        nmin = std::min(nmin, due);
        continue;
      }
      auto& rtx = out_rtx_[static_cast<std::size_t>(og)];
      const int before = rtx->occupancy();
      rtx->retire_expired(now);
      rtx_occ_ -= before - rtx->occupancy();
      refresh_rtx_cache(og);
      update_output_work(og);
      if (rtx_sent_mask_ & (1u << og)) {
        nmin = std::min(nmin, rtx_retire_at_[static_cast<std::size_t>(og)]);
      }
    }
    rtx_min_retire_ = nmin;
  }

  for (PortId p = 0; p < num_ports_; ++p) {
    if ((out_sig_[p] & Wire::kCurBack) == 0) continue;
    Wire* w = out_wires_[p];
    for (const Credit& c : w->credit.read()) {
      // §4.6: transient fault on a handshake line. With TMR the voter
      // recovers the credit; without it the credit pulse is lost and the
      // sender's view of the downstream buffer leaks a slot forever.
      if (f_hs_live_ && faults_->upset_handshake()) {
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
      if (f_hs_live_ && faults_->upset_handshake()) {
        if (cfg_.tmr_handshaking) {
          if (stats_) stats_->count(Counter::handshake_errors_corrected);
        } else {
          // Lost NACK: the receiver dropped flits that will never be
          // replayed — the packet arrives incomplete.
          if (stats_) stats_->count(Counter::unprotected_errors);
          nack = nullptr;
        }
      }
      if (nack) {
        auto& rtx = orx(gid(p, nack->vc));
        FTNOC_CHECK(rtx.has_value());
        const int n = rtx->on_nack();
        // Each rolled-back flit re-materializes a live instance whose wire
        // copy the receiver dropped (or will drop inside its window).
        if (mon_) mon_->on_restored(n);
        // 4-stage: a flit of this VC sitting in the switch-traversal
        // register is squashed — it is in flight inside our own pipe and
        // must be replayed after the rolled-back flits, not transmitted
        // stale ahead of them. (A staged *replay* was never consumed from
        // the pending region, so it simply stays queued — it need not be
        // at the front: the rollback may have just queued older flits
        // ahead of it, so scan the whole pending region or the replay is
        // double-queued and a duplicate reaches the receiver.)
        if (const StagedFlit* st = staged(p); st && st->vc == nack->vc) {
          const Flit& s = st->stored;
          const bool still_pending =
              rtx->pending_contains(s.packet_id, s.seq);
          if (!still_pending) {
            rtx->push_pending_back(s);
            ++rtx_occ_;
          }
          staged_[p].reset();
          --staged_count_;
        }
        refresh_rtx_cache(gid(p, nack->vc));
        update_output_work(gid(p, nack->vc));
        if (stats_) {
          stats_->count(Counter::link_retransmission_events);
          stats_->count(Counter::link_flits_retransmitted,
                        static_cast<std::uint64_t>(n));
        }
      }
    }
  }

  // 4-stage: flush the switch-traversal register onto the links, taking
  // the retransmission-barrel copy now so a flit's NACK window starts when
  // it actually hits the wires. Runs after NACK processing: a squashed
  // register never reaches the link.
  if (staged_count_ != 0) {
    for (PortId p = 0; p < num_ports_; ++p) {
      if (staged_[p]) {
        FTNOC_CHECK(out_wires_[p] != nullptr);
        finalize_transmission(p, staged_[p]->vc, staged_[p]->stored, now);
        out_wires_[p]->write(staged_[p]->wire);
        wrote_fwd_ |= port_bit(p);
        staged_[p].reset();
        --staged_count_;
      }
    }
  }

  // Send NACKs whose one-cycle check stage has elapsed.
  for (std::size_t i = 0; i < pending_nacks_.size();) {
    if (pending_nacks_[i].send_at <= now) {
      Wire* w = in_wires_[pending_nacks_[i].port];
      FTNOC_CHECK(w != nullptr);
      FTNOC_CHECK(w->nack.can_write());
      w->write(NackMsg{pending_nacks_[i].vc});
      wrote_back_ |= port_bit(pending_nacks_[i].port);
      charge(power::EnergyEvent::kNackSignal);
      pending_nacks_.erase_at(i);
    } else {
      ++i;
    }
  }
}

// ---------------------------------------------------------------------------
// Receive: flits (with link fault injection + protection policy), probes,
// activations.
// ---------------------------------------------------------------------------

void Router::phase_receive(Cycle now) {
  for (PortId p = 0; p < num_ports_; ++p) {
    const std::uint8_t m = in_sig_[p];
    if ((m & Wire::kCurFwd) == 0) continue;
    Wire* w = in_wires_[p];
    if (m & Wire::kCurFlit) {
      handle_incoming_flit(p, *w->flit.read(), now);
    }
    if (m & Wire::kCurProbe) {
      handle_probe(p, *w->probe.read(), now);
    }
    if (m & Wire::kCurActivation) {
      handle_activation(*w->activation.read(), now);
    }
  }
}

void Router::handle_incoming_flit(PortId p, Flit& f, Cycle now) {
  if (p != kLocalPort) {
    // Inter-router link: the flit just traversed real wires. Inject faults
    // and run the link-protection policy.
    if (faults_) faults_->maybe_corrupt_link(f);
    switch (cfg_.protection) {
      case LinkProtection::kHbh: {
        if (now <= drop_until_[gid(p, f.vc)]) {
          // Retransmission in progress: this is one of the in-flight flits
          // behind the errored one (Figure 4, "DROP").
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
          // Detected flit error: drop, NACK one cycle later (the check
          // stage), and drop the in-flight followers (two for the paper's
          // 3-cycle loop, Figure 4; three when the sender has a dedicated
          // ST stage and thus a third flit in flight).
          if (stats_) stats_->count(Counter::nacks_sent);
          pending_nacks_.push_back({p, f.vc, now + 1});
          // A sender with a dedicated ST stage has a third flit in flight,
          // so its drop window is one cycle longer. The "drop_window"
          // planted mutation reverts that fix (fuzz-harness self-test): a
          // stale third follower is then accepted out of order.
          const bool long_window = cfg_.pipeline_stages == 4 &&
                                   mutation_ != TestMutation::kDropWindow;
          drop_until_[gid(p, f.vc)] = now + (long_window ? 3 : 2);
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
        // Uncorrectable flits travel on, silently corrupt — FEC has no
        // retransmission path. Corruption is accounted at ejection.
        break;
      }
      case LinkProtection::kE2e:
      case LinkProtection::kNone:
        // No per-hop checking.
        break;
    }
  }
  accept_flit(p, f, now);
}

void Router::accept_flit(PortId p, const Flit& f, Cycle now) {
  const VcId v = f.vc;
  auto& vc = ivc(p, v);
  // The flit's one copy into this router: its input-ring slot.
  Flit& slot = vc.buf.push_back(f);
  slot.arrived_stamp = arrival_stamp(now);
  if (mon_) {
    // Injection is counted where a flit enters the conservation ledger's
    // domain: acceptance from the local PE.
    if (p == kLocalPort) mon_->on_injected();
    mon_->on_flit_accepted(now, id_, p, slot);
  }
  if (vc.buf.size() == 1) vc.front_stamp = slot.arrived_stamp;
  ++in_port_occ_[p];
  update_input_work(gid(p, v));
  charge(power::EnergyEvent::kBufferWrite);
}

// ---------------------------------------------------------------------------
// Replay + switch allocation + switch traversal.
// ---------------------------------------------------------------------------

void Router::phase_replay_and_switch(Cycle now) {
  const std::uint32_t vmask = (1u << num_vcs_) - 1u;

  // (a) Retransmissions and absorbed-flit transmissions take priority on
  // each output port: in-order delivery per VC requires the pending region
  // to drain before any new flit of that VC moves. Only output VCs with
  // pending entries (rtx_pending_mask_) are candidates, so the common
  // no-replay case never touches a barrel.
  for (PortId o = 0; rtx_pending_mask_ != 0 && o < num_ports_; ++o) {
    if (o == kLocalPort || out_wires_[o] == nullptr) continue;
    const std::uint32_t cand = (rtx_pending_mask_ >> (o * num_vcs_)) & vmask;
    if (cand == 0) continue;
    if (staged(o) != nullptr) continue;
    std::uint32_t mask = 0;
    for (std::uint32_t cm = cand; cm != 0; cm &= cm - 1) {
      const int v = std::countr_zero(cm);
      const auto& rtx = orx(gid(o, static_cast<VcId>(v)));
      const auto& out = ovc(o, static_cast<VcId>(v));
      // Pending flits transmit in order, but only once their packet owns
      // the output VC: a recovery waiter queued behind the current owner
      // must hold until the deferred ownership transfer.
      if (!out.allocated ||
          rtx->front_pending().packet_id != out.owner_pid) {
        continue;
      }
      if (rtx->front_pending_credit_held() ||
          can_consume_credit(o, static_cast<VcId>(v))) {
        mask |= (1u << v);
      }
    }
    if (mask == 0) continue;
    const int v = replay_arbs_[o].arbitrate(mask);
    const auto& rtx = orx(gid(o, static_cast<VcId>(v)));
    charge(power::EnergyEvent::kRetransmission);
    transmit(o, static_cast<VcId>(v), rtx->front_pending(), now,
             /*consume_credit=*/!rtx->front_pending_credit_held());
  }

  // (b) SA input stage: each input port nominates one of its kActive VCs.
  const std::uint32_t active = in_state(VcState::kActive);
  if (active == 0) return;
  std::array<int, kNumDirections> nominee;
  nominee.fill(-1);
  // Per-output-port mask of nominating input ports, filled as nominees are
  // picked so stage (c) need not re-scan every (o, p) pair.
  std::array<std::uint8_t, kNumDirections> out_req{};
  bool any_nominee = false;
  for (PortId p = 0; p < num_ports_; ++p) {
    std::uint32_t mask = 0;
    for (std::uint32_t cm = (active >> (p * num_vcs_)) & vmask; cm != 0;
         cm &= cm - 1) {
      const int v = std::countr_zero(cm);
      auto& vc = ivc(p, static_cast<VcId>(v));
      if (vc.buf.empty()) continue;
      if (vc.front_stamp == arrival_stamp(now)) continue;
      if (now < vc.stall_until) continue;
      const PortId o = vc.out_port;
      if (port_busy_[o]) continue;
      if (o != kLocalPort) {
        if (staged(o) != nullptr) continue;
        auto& out = ovc(o, vc.out_vc);
        // In-order delivery: this packet's own pending (older) flits must
        // replay first. A recovery waiter's pending flits do not block the
        // current owner. The pending mask keeps the common empty-barrel
        // case off the barrel and its slab.
        if ((rtx_pending_mask_ >> gid(o, vc.out_vc)) & 1u) {
          const auto& rtx = orx(gid(o, vc.out_vc));
          if (rtx->has_pending_for(out.owner_pid)) continue;
        }
        if (!can_consume_credit(o, vc.out_vc)) continue;
      }
      mask |= (1u << v);
    }
    if (mask != 0) {
      nominee[p] = sa_in_arbs_[p].arbitrate(mask);
      any_nominee = true;
      out_req[ivc(p, static_cast<VcId>(nominee[p])).out_port] |=
          static_cast<std::uint8_t>(1u << p);
    }
  }
  if (!any_nominee) return;

  // (c) SA output stage: each output port picks one requesting input port.
  for (PortId o = 0; o < num_ports_; ++o) {
    if (port_busy_[o]) continue;
    const std::uint32_t pmask = out_req[o];
    if (pmask == 0) continue;
    const int p = sa_out_arbs_[o].arbitrate(pmask);
    const auto v = static_cast<VcId>(nominee[p]);
    auto& vc = ivc(static_cast<PortId>(p), v);
    charge(power::EnergyEvent::kSwAllocation);

    bool corrupt_in_flight = false;
    if (f_sa_live_ && faults_->upset_sa_grant()) {
      if (cfg_.enable_ac) {
        // The AC's third comparison (Figure 12) catches the bad grant in
        // the crossbar-traversal stage; neighbours are NACKed to ignore the
        // transmission (§4.3) and the grant is redone next cycle.
        charge(power::EnergyEvent::kAcCheck);
        if (ac_requires_neighbor_nack(cfg_.pipeline_stages)) {
          charge(power::EnergyEvent::kNackSignal);
        }
        if (stats_) stats_->count(Counter::sa_errors_recovered);
        continue;
      }
      // Unprotected: the flit collides / is steered wrong — it leaves this
      // router corrupted (cases (b)-(d) of §4.3 all end in a wrecked flit).
      if (stats_) stats_->count(Counter::unprotected_errors);
      corrupt_in_flight = true;
    }

    // The popped slot stays intact until this ring's next push, which no
    // code below makes: read the flit where it sits.
    const Flit& f = vc.buf.front();
    vc.buf.pop_front();
    vc.sync_front_stamp();
    --in_port_occ_[p];
    charge(power::EnergyEvent::kBufferRead);
    charge(power::EnergyEvent::kCrossbarTraversal);
    const bool tail = is_tail(f.type);
    send_credit(static_cast<PortId>(p), v);
    vc.last_advance = now;

    if (vc.out_port == kLocalPort) {
      eject(f, now);
      if (tail) {
        set_alloc(gid(kLocalPort, vc.out_vc), false);
        update_output_work(gid(kLocalPort, vc.out_vc));
      }
    } else {
      transmit(vc.out_port, vc.out_vc, f, now,
               /*consume_credit=*/true, corrupt_in_flight);
    }
    if (tail) {
      release_input_after_tail(static_cast<PortId>(p), v, now);
    } else {
      update_input_work(gid(static_cast<PortId>(p), v));
    }
  }
}

void Router::finalize_transmission(PortId o, VcId v, const Flit& f,
                                   Cycle now) {
  if (is_tail(f.type)) set_tail(gid(o, v), true);
  // Keep the NACK-window copy. A replay (the flit is the front pending
  // entry) always records: the pop-and-reinsert cannot overflow. For fresh
  // transmissions, the barrel may be occupied by a recovery waiter's
  // absorbed flits; link protection is then briefly suspended for this VC
  // (the paper's single-fault model: link errors and deadlock recovery do
  // not overlap).
  auto& rtx = orx(gid(o, v));
  if (!rtx) return;
  const bool is_replay = rtx->has_pending() &&
                         rtx->front_pending().packet_id == f.packet_id &&
                         rtx->front_pending().seq == f.seq;
  if (!is_replay && !rtx->can_accept(now)) return;
  // §4.5: a soft error can corrupt the *stored* copy. The duplicate buffer
  // recovers it; without one the corrupt copy persists, and if the
  // original transmission is NACKed the replay resends the same broken
  // word forever — the endless retransmission loop.
  bool wreck_stored = false;
  if (f_rtx_live_ && faults_->upset_rtx_copy()) {
    if (cfg_.duplicate_rtx_buffers) {
      if (stats_) stats_->count(Counter::rtx_errors_corrected);
      charge(power::EnergyEvent::kRtxBufferWrite);  // Duplicate access.
    } else {
      wreck_stored = true;
    }
  }
  const int before = rtx->occupancy();
  if (wreck_stored) {
    // Latent fault: harmless unless this copy is ever replayed.
    Flit stored = f;
    stored.flip_code_bit(static_cast<int>(faults_->random_below(36)));
    stored.flip_code_bit(36 + static_cast<int>(faults_->random_below(36)));
    rtx->record_transmission(stored, now);
  } else {
    rtx->record_transmission(f, now);
  }
  rtx_occ_ += rtx->occupancy() - before;
  refresh_rtx_cache(gid(o, v));
  update_output_work(gid(o, v));
  charge(power::EnergyEvent::kRtxBufferWrite);
}

void Router::transmit(PortId o, VcId v, const Flit& f, Cycle now,
                      bool consume_credit, bool corrupt_on_wire) {
  FTNOC_CHECK(o != kLocalPort);
  FTNOC_CHECK(out_wires_[o] != nullptr);
  auto& out = ovc(o, v);
  if (consume_credit) {
    FTNOC_CHECK(out.credits > 0);
    --out.credits;
  }
  charge(power::EnergyEvent::kLinkTraversal);
  // In-crossbar upset (unprotected SA error): the wire copy is wrecked
  // but the barrel copy stays clean, so a NACKed replay recovers the
  // data. The bit positions are drawn up front to keep the RNG sequence
  // independent of the copy-elision below (draws precede the §4.5
  // stored-copy draw inside finalize_transmission, as they always have).
  int flip1 = -1;
  int flip2 = -1;
  if (corrupt_on_wire) {
    flip1 = static_cast<int>(faults_->random_below(36));
    flip2 = 36 + static_cast<int>(faults_->random_below(36));
  }
  if (cfg_.pipeline_stages == 4) {
    // The dedicated ST stage: barrel recording happens at flush time so
    // the NACK-loop ages line up with the wire.
    FTNOC_CHECK(staged(o) == nullptr);
    StagedFlit& s = staged_[o].emplace(StagedFlit{f, f, v});
    s.stored.vc = v;
    ++s.stored.hops;
    s.wire = s.stored;
    if (corrupt_on_wire) {
      s.wire.flip_code_bit(flip1);
      s.wire.flip_code_bit(flip2);
    }
    ++staged_count_;
  } else {
    // The flit's one copy on this hop's way out: the wire slot, stamped
    // in place. The barrel copy is taken from it before an in-crossbar
    // upset wrecks the wire copy.
    Flit& w = out_wires_[o]->write_slot(f);
    w.vc = v;
    ++w.hops;
    wrote_fwd_ |= port_bit(o);
    finalize_transmission(o, v, w, now);
    if (corrupt_on_wire) {
      w.flip_code_bit(flip1);
      w.flip_code_bit(flip2);
    }
  }
  port_busy_[o] = true;
}

void Router::eject(const Flit& f, Cycle now) {
  if (mon_) mon_->on_ejected();
  if (eject_) eject_(f, now);
}

void Router::send_credit(PortId p, VcId v) {
  progress_this_cycle_ = true;  // A buffer slot was freed.
  if (in_wires_[p]) {
    in_wires_[p]->write(Credit{v});
    wrote_back_ |= port_bit(p);
  }
}

void Router::release_input_after_tail(PortId p, VcId v, Cycle now) {
  auto& vc = ivc(p, v);
  set_state(gid(p, v), VcState::kRouting);
  vc.candidates = 0;
  vc.out_port = kInvalidPort;
  vc.out_vc = kInvalidVc;
  vc.state_since = now;
  update_input_work(gid(p, v));
}

void Router::maybe_release_outputs(Cycle now) {
  // Only allocated output VCs whose tail has left can be released.
  for (std::uint32_t m = alloc_mask_ & tail_mask_; m != 0; m &= m - 1) {
    const int og = std::countr_zero(m);
    auto& out = outputs_[static_cast<std::size_t>(og)];
    // The owner lingers while any of its flits sit in the barrel; an empty
    // barrel (per the summary masks) cannot contain the packet.
    if (((rtx_sent_mask_ | rtx_pending_mask_) >> og) & 1u) {
      const auto& rtx = out_rtx_[static_cast<std::size_t>(og)];
      if (rtx->contains_packet(out.owner_pid)) continue;
    }
    set_alloc(og, false);
    set_tail(og, false);
    if (out.has_waiter) {
      // Deferred allocation (deadlock recovery): the queued waiter
      // inherits the output VC; its absorbed flits can now replay out.
      set_alloc(og, true);
      out.owner_gid = out.waiter_gid;
      out.owner_pid = out.waiter_pid;
      out.has_waiter = false;
      // If the waiter's stream is still (partly) in its input buffer the
      // input VC resumes as a normal active wormhole; if the packet was
      // wholly absorbed the input VC has already been recycled.
      auto& wvc = inputs_[out.owner_gid];
      const PortId p = static_cast<PortId>(og / num_vcs_);
      const VcId v = static_cast<VcId>(og % num_vcs_);
      if (wvc.state == VcState::kVaReserved && wvc.out_port == p &&
          wvc.out_vc == v) {
        set_state(out.owner_gid, VcState::kActive);
        wvc.state_since = now;
      }
    }
    update_output_work(og);
  }
}

// ---------------------------------------------------------------------------
// VC allocation.
// ---------------------------------------------------------------------------

std::optional<std::pair<PortId, VcId>> Router::pick_va_request(InputVc& vc,
                                                               PortId in_port,
                                                               VcId in_vc,
                                                               int rotation) {
  // Build the mask of free, allowed output gids on all valid candidate
  // ports, then pick one by the input VC's rotating preference (the input
  // stage of a separable allocator): the (rotation % n)-th set bit, i.e.
  // the same ascending (port, VC) order as ReferenceRouter's options list.
  //
  // Escape-VC policy (Duato-style avoidance): VC 0 is the escape lane,
  // reachable only through the deadlock-free XY direction; adaptive
  // traffic uses VCs 1..V-1 on any productive port. A packet that arrived
  // *on* the escape VC stays in the escape subnetwork until delivery,
  // which keeps the extended channel dependency graph acyclic.
  const bool escape_mode = cfg_.routing == RoutingAlgorithm::kAdaptiveEscape;
  const bool escape_bound =
      escape_mode && in_port != kLocalPort && in_vc == 0;
  PortId xy_port = kInvalidPort;
  if (escape_mode && !vc.buf.empty()) {
    xy_port = first_port(
        route(topo_, RoutingAlgorithm::kXY, id_, vc.buf.front().dest));
  }

  const std::uint32_t vmask = (1u << num_vcs_) - 1u;
  std::uint32_t allowed = 0;
  for (unsigned cm = vc.candidates; cm != 0; cm &= cm - 1) {
    const auto o = static_cast<PortId>(std::countr_zero(cm));
    const bool valid = (o == kLocalPort)
                           ? (!vc.buf.empty() && vc.buf.front().dest == id_)
                           : port_allocatable(o);
    if (!valid) continue;
    std::uint32_t vcs = vmask;
    if (escape_mode && o != kLocalPort) {
      if (escape_bound) {
        vcs = o == xy_port ? 1u : 0u;
      } else if (o != xy_port) {
        vcs &= ~1u;
      }
    }
    allowed |= vcs << (o * num_vcs_);
  }
  std::uint32_t free = allowed & ~alloc_mask_;
  if (free == 0) return std::nullopt;
  for (int k = rotation % std::popcount(free); k > 0; --k) free &= free - 1;
  const int og = std::countr_zero(free);
  return std::make_pair(static_cast<PortId>(og / num_vcs_),
                        static_cast<VcId>(og % num_vcs_));
}

void Router::phase_va(Cycle now) {
  // Note on recovery: "no new packets are allowed to enter the
  // transmission buffers involved in the deadlock recovery" (§3.2.1) is
  // enforced at the injection boundary — the PE stops *starting* packets
  // while its router recovers. Packets already inside the network keep
  // being allocated: ejection-ready and transit packets are part of the
  // configuration being drained, not new entrants.
  // Per-cycle request state lives in preallocated scratch: va_req_ogs_
  // marks which va_reqs_ entries are valid this cycle, so nothing needs
  // clearing up front.
  va_req_ogs_ = 0;
  for (std::uint32_t m = in_state(VcState::kVaWait); m != 0; m &= m - 1) {
    const int g = std::countr_zero(m);
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.buf.empty()) continue;
    if (now < vc.stall_until) continue;
    FTNOC_CHECK(is_head(vc.buf.front().type));

    // A candidate set with no usable port can only come from an upset
    // routing computation: fault-aware routing offers live ports only, and
    // every waiting head re-routes after a kill. Whether the upset named a
    // mesh edge, a dead or draining link or a wrong-PE ejection, the VA
    // catches it from its link-state table (§4.2) and the RT redoes the
    // route - a single-cycle penalty.
    bool any_valid = false;
    for (PortId o = 0; o < num_ports_; ++o) {
      if (!mask_has(vc.candidates, o)) continue;
      if (o == kLocalPort ? vc.buf.front().dest == id_
                          : port_allocatable(o)) {
        any_valid = true;
        break;
      }
    }
    if (!any_valid) {
      if (stats_) stats_->count(Counter::rt_errors_recovered);
      set_state(g, VcState::kRouting);
      vc.candidates = 0;
      continue;
    }

    auto req = pick_va_request(vc, static_cast<PortId>(g / num_vcs_),
                               static_cast<VcId>(g % num_vcs_),
                               va_rotation_[static_cast<std::size_t>(g)]++);
    if (!req) continue;  // All candidate output VCs busy; retry next cycle.
    const int og = gid(req->first, req->second);
    if (va_req_ogs_ & (1u << og)) {
      va_reqs_[static_cast<std::size_t>(og)] |= (1u << g);
    } else {
      va_reqs_[static_cast<std::size_t>(og)] = (1u << g);
      va_req_ogs_ |= (1u << og);
    }
    va_want_[static_cast<std::size_t>(g)] = *req;
  }

  for (std::uint32_t m = va_req_ogs_; m != 0; m &= m - 1) {
    const int og = std::countr_zero(m);
    const int g = va_arbs_[og].arbitrate(va_reqs_[static_cast<std::size_t>(og)]);
    FTNOC_CHECK(g >= 0);
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    const PortId o = va_want_[static_cast<std::size_t>(g)].first;
    const VcId v = va_want_[static_cast<std::size_t>(g)].second;
    charge(power::EnergyEvent::kVcAllocation);

    if (f_va_live_ && faults_->upset_va_allocation()) {
      run_ac_on_va(static_cast<std::size_t>(g));
      continue;
    }

    set_state(g, VcState::kActive);
    vc.out_port = o;
    vc.out_vc = v;
    vc.state_since = now;
    auto& out = ovc(o, v);
    set_alloc(og, true);
    out.owner_gid = static_cast<std::uint16_t>(g);
    out.owner_pid = vc.buf.front().packet_id;
    set_tail(og, false);
    update_output_work(og);
  }
}

void Router::run_ac_on_va(std::size_t g) {
  auto& vc = inputs_[g];
  // Build the corrupted VA state entry the soft error produced. The upset
  // manifests as one of the §4.1 scenarios; we synthesize it and feed the
  // *actual* AC comparator so the detection path is exercised for real.
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
    case 0:  // Scenario (1): invalid output VC id.
      bad.out_port = first_port(vc.candidates);
      bad.out_vc = static_cast<VcId>(num_vcs_);
      break;
    case 1: {  // Scenario (4b): output VC on a PC the RT never returned.
      PortId wrong = static_cast<PortId>(faults_->random_below(
          static_cast<std::uint64_t>(num_ports_)));
      while (mask_has(vc.candidates, wrong)) {
        wrong = static_cast<PortId>((wrong + 1) % num_ports_);
      }
      bad.out_port = wrong;
      bad.out_vc = 0;
      break;
    }
    default: {  // Scenarios (2)/(3): duplicate/reserved output VC.
      bad.out_port = first_port(vc.candidates);
      bad.out_vc = kInvalidVc;
      for (VcId v = 0; v < num_vcs_; ++v) {
        if (ovc(bad.out_port, v).allocated) {
          bad.out_vc = v;
          break;
        }
      }
      if (bad.out_vc == kInvalidVc) {
        bad.out_vc = static_cast<VcId>(num_vcs_);  // Fall back to invalid id.
      }
      break;
    }
  }
  va_state.push_back(bad);

  if (cfg_.enable_ac) {
    const AcReport report = ac_.check(rt_state, va_state, sa_state);
    charge(power::EnergyEvent::kAcCheck);
    FTNOC_CHECK(report.any_error());
    // Invalidate the previous cycle's allocation: the input VC stays in
    // kVaWait and re-arbitrates — exactly one cycle lost (§4.1).
    if (stats_) stats_->count(Counter::va_errors_recovered);
    return;
  }
  // Unprotected VA upset: the packet inherits a broken (or duplicate)
  // wormhole and its flits are effectively lost (§4.1 scenarios 1-3).
  if (stats_) stats_->count(Counter::unprotected_errors);
  set_state(static_cast<int>(g), VcState::kDraining);
}

// ---------------------------------------------------------------------------
// Routing stage.
// ---------------------------------------------------------------------------

PortMask Router::apply_rt_fault(InputVc& vc, PortMask correct, Cycle now) {
  if (!f_rt_live_ || !faults_->upset_routing()) return correct;

  // Pick the erroneous direction uniformly among ports outside the correct
  // set (a flip landing inside the set is not observable as an error).
  std::array<PortId, kNumDirections> wrongs{};
  int n = 0;
  for (PortId o = 0; o < num_ports_; ++o) {
    if (!mask_has(correct, o)) wrongs[static_cast<std::size_t>(n++)] = o;
  }
  FTNOC_CHECK(n > 0);
  const PortId w = wrongs[faults_->random_below(static_cast<std::uint64_t>(n))];

  const bool functional = (w != kLocalPort) && port_allocatable(w);
  if (!functional) {
    // Blocked/invalid direction: the local VA will catch it against its
    // link-state table (§4.2) — return the corrupted candidate set.
    return port_bit(w);
  }
  if (cfg_.routing == RoutingAlgorithm::kXY) {
    // Functional misdirection under deterministic routing: the *receiving*
    // router detects the DOR violation and NACKs; recovery costs
    // 1 (NACK) + n (re-route + retransmission) cycles (§4.2). We charge the
    // penalty and the signalling energy without physically bouncing the
    // header, which keeps the wormhole state machine exact.
    if (stats_) stats_->count(Counter::rt_errors_recovered);
    charge(power::EnergyEvent::kNackSignal);
    charge(power::EnergyEvent::kRetransmission);
    vc.stall_until =
        now + static_cast<Cycle>(rt_recovery_penalty(
                  cfg_.pipeline_stages, /*lookahead=*/cfg_.pipeline_stages <= 2,
                  RtMisrouteKind::kFunctionalDeterministic));
    return correct;
  }
  // Adaptive routing: the misdirection is undetectable and benign — the
  // packet physically takes the wrong turn and re-routes minimally from
  // there (§4.2).
  return port_bit(w);
}

void Router::phase_rt(Cycle now) {
  // Draining VCs, and kRouting VCs in the work set (those hold a flit).
  const std::uint32_t todo =
      in_state(VcState::kDraining) |
      (in_work_ & in_state(VcState::kRouting));
  for (std::uint32_t m = todo; m != 0; m &= m - 1) {
    const int g = std::countr_zero(m);
    auto& vc = inputs_[static_cast<std::size_t>(g)];

    if (vc.state == VcState::kDraining) {
      if (!vc.buf.empty() && vc.front_stamp != arrival_stamp(now)) {
        const Flit f = vc.buf.front();
        vc.buf.pop_front();
        vc.sync_front_stamp();
        --in_port_occ_[g / num_vcs_];
        if (mon_) mon_->on_dropped();
        charge(power::EnergyEvent::kBufferRead);
        send_credit(static_cast<PortId>(g / num_vcs_),
                    static_cast<VcId>(g % num_vcs_));
        vc.last_advance = now;
        if (is_tail(f.type)) {
          set_state(g, VcState::kRouting);
          vc.state_since = now;
          if (drop_) drop_(f.packet_id);
        }
        update_input_work(g);
      }
      continue;
    }

    if (vc.buf.empty()) continue;
    if (vc.front_stamp == arrival_stamp(now)) continue;
    if (now < vc.stall_until) continue;
    if (!is_head(vc.buf.front().type)) {
      // A body/tail flit with no open wormhole: its header was dropped and
      // never replayed (possible only when the NACK path itself is faulty,
      // e.g. unprotected handshake lines, §4.6). Discard the stray flit.
      vc.buf.pop_front();
      vc.sync_front_stamp();
      --in_port_occ_[g / num_vcs_];
      if (mon_) mon_->on_dropped();
      send_credit(static_cast<PortId>(g / num_vcs_),
                  static_cast<VcId>(g % num_vcs_));
      if (stats_) {
        stats_->count(Counter::flits_dropped);
        stats_->count(Counter::unprotected_errors);
      }
      update_input_work(g);
      continue;
    }

    charge(power::EnergyEvent::kRouteCompute);
    const NodeId dest = vc.buf.front().dest;
    PortMask correct = route(topo_, cfg_.routing, id_, dest);
    // validate() and the storm-kill veto keep the live fabric connected,
    // so every destination is reachable.
    FTNOC_CHECK(correct != 0);
    if (topo_.has_faults()) {
      if (mutation_ == TestMutation::kRouteIntoDeadLink) {
        // Planted mutation (fuzz-harness self-test): route by the closed
        // form, as a router whose RT link-state input is stuck-at-good
        // would — it aims wormholes straight into dead links.
        correct = route_fault_free(topo_, cfg_.routing, id_, dest);
      }
      if (stats_ &&
          (correct & ~route_fault_free(topo_, cfg_.routing, id_, dest)) !=
              0) {
        // The fault-aware set offers a direction the fault-free minimal
        // set would not: this hop detours the packet around a hard fault.
        stats_->count(Counter::hard_fault_reroutes);
      }
    }
    vc.candidates = apply_rt_fault(vc, correct, now);
    set_state(g, VcState::kVaWait);
    vc.state_since = now;
  }
}

// ---------------------------------------------------------------------------
// Deadlock detection (probing) and recovery (absorption).
// ---------------------------------------------------------------------------

bool Router::vc_blocked(const InputVc& vc, Cycle now) const {
  // A VC is blocked if it holds flits that made no progress recently,
  // whether it already owns an output VC (kActive), is waiting for one
  // (kVaWait — the classic wormhole channel-wait), or has been queued by
  // the recovery machinery (kVaReserved).
  if (vc.buf.empty() && vc.state != VcState::kVaReserved) return false;
  if (vc.state != VcState::kActive && vc.state != VcState::kVaWait &&
      vc.state != VcState::kVaReserved) {
    return false;
  }
  return now - vc.last_advance >= 2;
}

void Router::queue_control(PortId port, const ProbeSignal& p) {
  OutboxItem item;
  item.port = port;
  item.is_probe = true;
  item.probe = p;
  outbox_.push_back(item);
}

void Router::queue_control(PortId port, const ActivationSignal& a) {
  OutboxItem item;
  item.port = port;
  item.is_probe = false;
  item.activation = a;
  outbox_.push_back(item);
}

void Router::flush_outbox() {
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
      wrote_fwd_ |= port_bit(item.port);
      outbox_.erase_at(i);
    } else {
      ++i;
    }
  }
}

// The next link of a blocked-dependency chain through `vc`: its own output
// if the wormhole is established (kActive / kVaReserved), or the output VC
// held by the packet it is waiting on (kVaWait) — the chain then continues
// at the downstream router's matching input VC.
std::optional<std::pair<PortId, VcId>> Router::resolve_chain(
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

void Router::handle_probe(PortId /*from*/, const ProbeSignal& probe,
                          Cycle now) {
  charge(power::EnergyEvent::kProbeHop);
  if (probe.hops >
      kProbeTtlPerNode * static_cast<std::uint32_t>(topo_.num_nodes())) {
    // The probe is orbiting a cycle that does not contain its origin.
    if (stats_) stats_->count(Counter::probes_discarded);
    return;
  }
  if (probe.origin == id_) {
    FTNOC_TRACE(trace_fmt("[%llu] r%u probe id=%u RETURNED",
                          (unsigned long long)now, id_, probe.probe_id));
    if (const auto via = agent_.on_probe_returned(probe)) {
      // The probe circled the suspected cycle: genuine deadlock. Send the
      // activation out the port the probe left through, around the same
      // path (Rule 3 consumers are the nodes that relayed our probe).
      if (stats_) stats_->count(Counter::deadlocks_confirmed);
      if (mon_) mon_->on_probe_confirmed(now, id_, probe.probe_id);
      queue_control(*via, ActivationSignal{id_, probe.probe_id});
    }
    return;
  }

  // Rule 2: inspect the named buffer; forward along the blocked chain or
  // discard.
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

void Router::handle_activation(const ActivationSignal& act, Cycle now) {
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

void Router::phase_deadlock(Cycle now) {
  // Progress must be noted (and the flag cleared) even with recovery
  // disabled: a stale flag would otherwise keep the router re-ticking.
  if (progress_this_cycle_) {
    agent_.note_progress();
    progress_this_cycle_ = false;
  }
  if (!cfg_.deadlock.enable_recovery) return;

  // Rule 1: launch a probe for an over-threshold blocked VC. Both
  // established wormholes (credit-blocked) and VA-waiting heads
  // (channel-blocked) can anchor a deadlock; for the latter the chain is
  // resolved through the local holder of the wanted output VC. The
  // VC-independent half of the probe rule gates the whole walk.
  const std::uint32_t waiting =
      in_state(VcState::kActive) | in_state(VcState::kVaWait);
  for (std::uint32_t m = agent_.may_probe(now) ? waiting : 0; m != 0;
       m &= m - 1) {
    const int g = std::countr_zero(m);
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.buf.empty()) continue;
    const Cycle blocked = now - vc.last_advance;
    if (!agent_.should_probe(blocked, now)) continue;
    const auto chain = resolve_chain(vc);
    if (!chain) continue;
    const ProbeSignal pr =
        agent_.make_probe(chain->first, chain->second, now);
    if (mon_) mon_->on_probe_minted(id_, pr.probe_id);
    // Fallback: repeated probe expiry with zero local progress means this
    // router's blocked packets feed a deadlocked region whose cycle does
    // not pass through here — the probes orbit it and can never return.
    // Join the recovery unilaterally so the region gains slack here too.
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
    FTNOC_TRACE(trace_fmt("[%llu] r%u PROBE id=%u via port %d target(%d,%d)",
                          (unsigned long long)now, id_, pr.probe_id,
                          (int)chain->first, (int)pr.in_port,
                          (int)pr.in_vc));
    queue_control(chain->first, pr);
    if (stats_) stats_->count(Counter::probes_sent);
    charge(power::EnergyEvent::kProbeHop);
  }

  if (!agent_.in_recovery()) return;

  // Recovery: absorb blocked flits into the retransmission buffers
  // (Figure 10, step 2), freeing transmission-buffer slots so the cyclic
  // dependency can creep forward. One absorption per output VC per cycle —
  // the barrel shifter has a single input port.
  //
  // Two kinds of blocked input VCs shed flits:
  //  * kVaWait heads (the classic wormhole channel-wait): the packet
  //    commits to its first valid candidate port, registers as *waiter* on
  //    an output VC there (deferred allocation), and parks flits behind
  //    the current owner's; they replay out after the ownership transfer.
  //  * kActive / kVaReserved wormholes out of credits: they park flits in
  //    their own output VC's barrel until downstream space frees.
  absorbed_ = 0;
  for (std::uint32_t m = in_state(VcState::kActive) |
                         in_state(VcState::kVaWait) |
                         in_state(VcState::kVaReserved);
       m != 0; m &= m - 1) {
    const int g = std::countr_zero(m);
    auto& vc = inputs_[static_cast<std::size_t>(g)];
    if (vc.buf.empty() || vc.front_stamp == arrival_stamp(now)) continue;
    const auto in_port = static_cast<PortId>(g / num_vcs_);
    const auto in_vc = static_cast<VcId>(g % num_vcs_);

    if (vc.state == VcState::kVaWait) {
      if (now - vc.last_advance < 2) continue;  // Not actually stuck.
      // Commit to the first valid candidate port and queue behind the
      // owner of one of its output VCs.
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
        const auto& cand_rtx = orx(gid(o, cv));
        if (cand_rtx && cand_out.allocated && !cand_out.has_waiter &&
            cand_rtx->free_slots() > 0) {
          v = cv;
          break;
        }
      }
      if (v == kInvalidVc) continue;
      auto& out = ovc(o, v);
      out.has_waiter = true;
      out.waiter_gid = static_cast<std::uint16_t>(g);
      out.waiter_pid = vc.buf.front().packet_id;
      update_output_work(gid(o, v));
      FTNOC_TRACE(trace_fmt("[%llu] r%u register waiter pkt%llu on %d_%d",
                            (unsigned long long)now, id_,
                            (unsigned long long)out.waiter_pid, (int)o,
                            (int)v));
      set_state(g, VcState::kVaReserved);
      vc.out_port = o;
      vc.out_vc = v;
      vc.state_since = now;
      // Fall through to the absorption below this cycle.
    }

    if (vc.state != VcState::kActive && vc.state != VcState::kVaReserved) {
      continue;
    }
    if (vc.out_port == kLocalPort) continue;
    auto& out = ovc(vc.out_port, vc.out_vc);
    auto& rtx = orx(gid(vc.out_port, vc.out_vc));
    if (!rtx) continue;
    const bool owns = out.allocated &&
                      out.owner_pid == vc.buf.front().packet_id;
    if (owns && can_consume_credit(vc.out_port, vc.out_vc)) {
      continue;  // Normal progress possible.
    }
    const int og = gid(vc.out_port, vc.out_vc);
    if (absorbed_ & (1u << og)) continue;
    if (rtx->free_slots() <= 0) continue;
    // A waiter only absorbs its own stream, and must leave one slot for
    // the owner: the owner's tail is exactly what releases this VC to the
    // waiter, so starving the owner of barrel space wedges both.
    if (!owns && !(out.has_waiter && out.waiter_gid == g)) continue;
    if (!owns && rtx->free_slots() <= 1) continue;

    Flit f = vc.buf.front();
    vc.buf.pop_front();
    vc.sync_front_stamp();
    --in_port_occ_[in_port];
    f.vc = vc.out_vc;
    if (owns) {
      // Owner flits go ahead of any queued waiter's in the pending region
      // (the owner's wormhole completes first on the wire).
      rtx->absorb_as_owner(f, out.owner_pid);
    } else {
      rtx->absorb(f);
    }
    ++rtx_occ_;
    refresh_rtx_cache(og);
    absorbed_ |= (1u << og);
    update_output_work(og);
    charge(power::EnergyEvent::kBufferRead);
    charge(power::EnergyEvent::kRtxBufferWrite);
    send_credit(in_port, in_vc);
    if (stats_) stats_->count(Counter::flits_absorbed);
    vc.last_advance = now;
    if (is_tail(f.type)) {
      release_input_after_tail(in_port, in_vc, now);
    } else {
      update_input_work(g);
    }
  }

  // Exit recovery as soon as every absorbed flit has drained back out of
  // the retransmission barrels ("once the deadlock configuration is
  // broken, each node resumes its normal operation", §3.2.1). If the
  // deadlock in fact persists, the probing machinery re-confirms it and
  // recovery re-enters. The exit must NOT wait for all blocking to clear:
  // under saturation some VC is always blocked longer than Cthres, and a
  // router that never exits keeps the chip-wide injection gate asserted
  // forever — a livelock (observed with aggressive Cthres values).
  const bool pending = rtx_pending_mask_ != 0;
  // A VC still starving after a long, Cthres-independent window keeps the
  // router in recovery (its absorption capacity stays available and the
  // chip-wide injection gate stays asserted so the region keeps draining).
  bool blocked_long = false;
  for (std::uint32_t m = in_state(VcState::kActive) |
                         in_state(VcState::kVaWait) |
                         in_state(VcState::kVaReserved);
       m != 0; m &= m - 1) {
    const auto& in = inputs_[static_cast<std::size_t>(std::countr_zero(m))];
    if (!in.buf.empty() && now - in.last_advance > kExitBlockWindow) {
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

// Utilization counts only physically present buffers: mesh-edge ports have
// no link and their VCs can never hold a flit, so including them would
// dilute the Figure 8/9 numbers. Input-buffer occupancy sums per-port
// running counters bumped at every push/pop; barrel occupancy sums are
// O(set bits) of the output work mask (a clear bit proves an empty
// barrel). Flits only ever arrive through connected wires.
int Router::tx_buffer_occupancy() const {
  int occ = 0;
  for (const int n : in_port_occ_) occ += n;
  return occ;
}

int Router::tx_buffer_slots() const {
  int ports = 0;
  for (PortId p = 0; p < num_ports_; ++p) {
    if (in_wires_[p] != nullptr) ++ports;
  }
  return ports * num_vcs_ * cfg_.vc_buffer_depth;
}

int Router::rtx_buffer_occupancy() const { return rtx_occ_; }

int Router::rtx_buffer_slots() const {
  int n = 0;
  for (PortId p = 0; p < num_ports_; ++p) {
    if (out_wires_[p] == nullptr) continue;
    for (VcId v = 0; v < num_vcs_; ++v) {
      const auto& rtx = orx(gid(p, v));
      if (rtx) n += rtx->depth();
    }
  }
  return n;
}

int Router::input_buffer_size(PortId p, VcId v) const {
  return static_cast<int>(ivc(p, v).buf.size());
}

// ---------------------------------------------------------------------------
// Invariant monitor walks (DESIGN.md §4.8).
// ---------------------------------------------------------------------------

void Router::check_local_invariants(Cycle now) {
  if (!mon_) return;
  const int pv = num_ports_ * num_vcs_;
  std::array<int, kNumDirections> occ{};
  std::array<std::uint32_t, kNumVcStates> state_m{};
  std::uint32_t alloc_m = 0;
  std::uint32_t tail_m = 0;
  for (int g = 0; g < pv; ++g) {
    const PortId p = static_cast<PortId>(g / num_vcs_);
    const VcId v = static_cast<VcId>(g % num_vcs_);
    const auto& in = inputs_[static_cast<std::size_t>(g)];
    occ[p] += static_cast<int>(in.buf.size());
    const bool in_busy = !in.buf.empty() || in.state != VcState::kRouting;
    if (in_busy != (((in_work_ >> g) & 1u) != 0)) {
      mon_->fail(InvariantId::kWorkMaskAgreement, now, id_, p, v,
                 std::string("in_work_ bit ") + (in_busy ? "clear" : "set") +
                     " for a " + (in_busy ? "busy" : "idle") +
                     " input VC (state=" +
                     std::to_string(static_cast<int>(in.state)) +
                     " buf=" + std::to_string(in.buf.size()) + ")");
    }
    state_m[static_cast<std::size_t>(in.state)] |= 1u << g;
    const auto& out = outputs_[static_cast<std::size_t>(g)];
    if (out.allocated) alloc_m |= 1u << g;
    if (out.tail_sent) tail_m |= 1u << g;
    const auto& rtx = out_rtx_[static_cast<std::size_t>(g)];
    const bool out_busy = out.allocated || out.has_waiter ||
                          (rtx && rtx->occupancy() > 0);
    if (out_busy != (((out_work_ >> g) & 1u) != 0)) {
      mon_->fail(InvariantId::kWorkMaskAgreement, now, id_, p, v,
                 std::string("out_work_ bit ") + (out_busy ? "clear" : "set") +
                     " for a " + (out_busy ? "busy" : "idle") +
                     " output VC (allocated=" + std::to_string(out.allocated) +
                     " waiter=" + std::to_string(out.has_waiter) + " rtx=" +
                     std::to_string(rtx ? rtx->occupancy() : 0) + ")");
    }
  }
  // The per-state, allocation and tail-sent masks decide which VCs each
  // phase visits; a drifted bit silently skips (or revisits) a VC.
  for (int s = 0; s < kNumVcStates; ++s) {
    if (state_m[static_cast<std::size_t>(s)] !=
        state_mask_[static_cast<std::size_t>(s)]) {
      mon_->fail(InvariantId::kWorkMaskAgreement, now, id_, -1, -1,
                 "state mask " + std::to_string(s) + " is " +
                     std::to_string(state_mask_[static_cast<std::size_t>(s)]) +
                     " but the input VCs in that state are " +
                     std::to_string(state_m[static_cast<std::size_t>(s)]));
    }
  }
  if (alloc_m != alloc_mask_ || tail_m != tail_mask_) {
    mon_->fail(InvariantId::kWorkMaskAgreement, now, id_, -1, -1,
               "output masks are stale (alloc " + std::to_string(alloc_mask_) +
                   " vs " + std::to_string(alloc_m) + ", tail " +
                   std::to_string(tail_mask_) + " vs " +
                   std::to_string(tail_m) + ")");
  }
  for (PortId p = 0; p < num_ports_; ++p) {
    if (occ[p] != in_port_occ_[p]) {
      mon_->fail(InvariantId::kOccupancyCounter, now, id_, p, -1,
                 "in_port_occ_ running counter is " +
                     std::to_string(in_port_occ_[p]) +
                     " but the port's VC buffers hold " +
                     std::to_string(occ[p]) + " flits");
    }
  }
  int rtx_occ = 0;
  for (const auto& rtx : out_rtx_) {
    if (rtx) rtx_occ += rtx->occupancy();
  }
  if (rtx_occ != rtx_occ_) {
    mon_->fail(InvariantId::kOccupancyCounter, now, id_, -1, -1,
               "rtx_occ_ running counter is " + std::to_string(rtx_occ_) +
                   " but the barrels hold " + std::to_string(rtx_occ) +
                   " flits");
  }
  // The barrel summary caches must mirror the barrels exactly: a stale
  // sent/pending bit changes which VCs the maintenance/replay scans visit.
  std::uint32_t sent_m = 0;
  std::uint32_t pend_m = 0;
  for (int g = 0; g < num_ports_ * num_vcs_; ++g) {
    const auto& rtx = out_rtx_[static_cast<std::size_t>(g)];
    if (!rtx) continue;
    if (rtx->sent_count() > 0) {
      sent_m |= 1u << g;
      if (rtx_retire_at_[static_cast<std::size_t>(g)] !=
          rtx->next_retire_at()) {
        mon_->fail(InvariantId::kOccupancyCounter, now, id_,
                   g / num_vcs_, g % num_vcs_,
                   "rtx_retire_at_ mirror is stale");
      }
      if (rtx_min_retire_ > rtx->next_retire_at()) {
        mon_->fail(InvariantId::kOccupancyCounter, now, id_,
                   g / num_vcs_, g % num_vcs_,
                   "rtx_min_retire_ watermark is above a live deadline");
      }
    }
    if (rtx->has_pending()) pend_m |= 1u << g;
  }
  if (sent_m != rtx_sent_mask_ || pend_m != rtx_pending_mask_) {
    mon_->fail(InvariantId::kOccupancyCounter, now, id_, -1, -1,
               "rtx summary masks are stale (sent " +
                   std::to_string(rtx_sent_mask_) + " vs " +
                   std::to_string(sent_m) + ", pending " +
                   std::to_string(rtx_pending_mask_) + " vs " +
                   std::to_string(pend_m) + ")");
  }
  int occupied = 0;
  for (PortId p = 0; p < num_ports_; ++p) {
    if (staged(p) != nullptr) ++occupied;
  }
  if (occupied != staged_count_) {
    mon_->fail(InvariantId::kStagedRegister, now, id_, -1, -1,
               "staged_count_ is " + std::to_string(staged_count_) + " but " +
                   std::to_string(occupied) + " register(s) are occupied");
  }
}

long long Router::live_flit_count() const {
  long long n = 0;
  for (const auto& in : inputs_) n += static_cast<long long>(in.buf.size());
  for (PortId p = 0; p < num_ports_; ++p) {
    const StagedFlit* const st = staged(p);
    if (st == nullptr) continue;
    // A staged *replay* was never consumed from the pending region (the
    // pop happens at flush time), so the pending entry is the one live
    // instance and the register holds its shadow.
    const Flit& s = st->stored;
    const auto& rtx = orx(gid(p, st->vc));
    const bool shadow = rtx && rtx->has_pending() &&
                        rtx->front_pending().packet_id == s.packet_id &&
                        rtx->front_pending().seq == s.seq;
    if (!shadow) ++n;
  }
  for (const auto& rtx : out_rtx_) {
    if (rtx) n += rtx->pending_count();
  }
  return n;
}

int Router::held_credits(PortId p, VcId v) const {
  const auto& out = ovc(p, v);
  const auto& rtx = orx(gid(p, v));
  int n = out.credits;
  if (rtx) {
    for (int i = 0; i < rtx->pending_count(); ++i) {
      if (rtx->pending_credit_held(i)) ++n;
    }
  }
  if (const StagedFlit* st = staged(p); st && st->vc == v) {
    // The staged flit holds a downstream slot unless it is a replay whose
    // pending entry still records the credit (counted above).
    const Flit& s = st->stored;
    const bool counted_in_pending =
        rtx && rtx->has_pending() &&
        rtx->front_pending().packet_id == s.packet_id &&
        rtx->front_pending().seq == s.seq &&
        rtx->pending_credit_held(0);
    if (!counted_in_pending) ++n;
  }
  return n;
}

std::uint64_t Router::state_digest() const {
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
    for (std::size_t i = 0; i < in.buf.size(); ++i) h.mix_flit(in.buf[i]);

    const auto& out = outputs_[static_cast<std::size_t>(g)];
    h.mix(out.allocated);
    h.mix(out.owner_gid);
    h.mix(out.owner_pid);
    h.mix(out.tail_sent);
    h.mix(static_cast<std::uint64_t>(out.credits));
    h.mix(out.has_waiter);
    h.mix(out.waiter_gid);
    h.mix(out.waiter_pid);
    const auto& rtx = out_rtx_[static_cast<std::size_t>(g)];
    h.mix(rtx.has_value());
    if (rtx) {
      h.mix(static_cast<std::uint64_t>(rtx->sent_count()));
      for (int i = 0; i < rtx->sent_count(); ++i) {
        h.mix_flit(rtx->sent_flit(i));
        h.mix(static_cast<std::uint64_t>(rtx->sent_time(i)));
      }
      h.mix(static_cast<std::uint64_t>(rtx->pending_count()));
      for (int i = 0; i < rtx->pending_count(); ++i) {
        h.mix_flit(rtx->pending_flit(i));
        h.mix(rtx->pending_credit_held(i));
      }
    }
    h.mix(static_cast<std::uint64_t>(drop_until_[static_cast<std::size_t>(g)]));
    h.mix(static_cast<std::uint64_t>(
        va_rotation_[static_cast<std::size_t>(g)]));
    h.mix(static_cast<std::uint64_t>(va_arbs_[g].last_grant()));
  }
  for (PortId p = 0; p < num_ports_; ++p) {
    // A router without registers mixes `false` per port, as the
    // reference router's always-present empty registers do.
    const StagedFlit* const st = staged(p);
    h.mix(st != nullptr);
    if (st != nullptr) {
      h.mix_flit(st->wire);
      h.mix_flit(st->stored);
      h.mix(static_cast<std::uint64_t>(st->vc));
    }
    h.mix(link_dead_[p]);
    h.mix((draining_ & port_bit(p)) != 0);
    h.mix(static_cast<std::uint64_t>(sa_in_arbs_[p].last_grant()));
    h.mix(static_cast<std::uint64_t>(sa_out_arbs_[p].last_grant()));
    h.mix(static_cast<std::uint64_t>(replay_arbs_[p].last_grant()));
  }
  h.mix(pending_nacks_.size());
  for (std::size_t i = 0; i < pending_nacks_.size(); ++i) {
    h.mix(static_cast<std::uint64_t>(pending_nacks_[i].port));
    h.mix(static_cast<std::uint64_t>(pending_nacks_[i].vc));
    h.mix(static_cast<std::uint64_t>(pending_nacks_[i].send_at));
  }
  h.mix(outbox_.size());
  for (std::size_t i = 0; i < outbox_.size(); ++i) {
    const auto& item = outbox_[i];
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
