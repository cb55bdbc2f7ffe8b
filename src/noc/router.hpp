#pragma once
// The pipelined virtual-channel wormhole router (Figure 1) with all of the
// paper's fault-tolerance machinery attached:
//
//  * per-output-VC retransmission barrel shifters + NACK-driven hop-by-hop
//    (HBH) flit retransmission (§3.1, Figure 4);
//  * the Allocation Comparator checking VA/SA state each cycle (§4,
//    Figure 12), with logic-fault injection into RT/VA/SA;
//  * the probing deadlock detector and retransmission-buffer-based
//    recovery (§3.2, Figures 10/11).
//
// Pipeline model. Router phases execute once per cycle; flits only become
// eligible for a stage the cycle after the previous stage handled them,
// which reproduces the per-hop latency of an n-stage router + 1-cycle link:
//
//   stages=3 (paper's default): BW -> RT+VA split as RT | VA | SA+ST
//   stages=2: RT+VA same cycle (look-ahead + speculation) | SA+ST
//   stages=1: RT+VA+SA+ST in one cycle
//   stages=4: RT | VA | SA | ST (output staging register)
//
// Routers communicate exclusively through 1-cycle Wire channels, so the
// sequential update order of routers within a cycle is unobservable.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>

#include "common/config.hpp"
#include "common/inline_vec.hpp"
#include "common/topology.hpp"
#include "common/types.hpp"
#include "core/allocation_comparator.hpp"
#include "core/deadlock.hpp"
#include "core/error_check_unit.hpp"
#include "core/fault_injector.hpp"
#include "core/flit.hpp"
#include "core/invariants.hpp"
#include "core/retransmission_buffer.hpp"
#include "noc/arbiter.hpp"
#include "noc/channel.hpp"
#include "noc/flit_store.hpp"
#include "noc/router_iface.hpp"
#include "noc/routing.hpp"
#include "noc/stats.hpp"
#include "power/energy_model.hpp"

namespace ftnoc {

/// What the event-driven Network needs to know after a router step: which
/// output ports the router drove forward signals on (flit/probe/
/// activation — wakes the downstream consumer), which input-side bundles
/// it drove backward signals on (credit/NACK — wakes the upstream
/// producer; bit kLocalPort wakes the PE), and whether the router wants
/// a self-tick next cycle. Every wake falls due on the next cycle.
struct WakeInfo {
  std::uint8_t wrote_fwd = 0;
  std::uint8_t wrote_back = 0;
  bool retick = false;
};

class Router final : public RouterIface {
 public:
  Router(NodeId id, const SimConfig& cfg, const Topology& topo,
         FaultInjector* faults, power::EnergyMeter* meter,
         StatsCollector* stats);
  ~Router() override;

  /// Wires port `p`: `in` carries the neighbour's (or PE's) signals toward
  /// this router, `out` carries this router's signals away. Either may be
  /// nullptr for a nonexistent link (mesh edge).
  void connect(PortId p, Wire* in, Wire* out) override;

  void set_eject_fn(EjectFn fn) override { eject_ = std::move(fn); }
  void set_drop_fn(DropFn fn) override { drop_ = std::move(fn); }

  /// Marks a link port as hard-failed (pre-programmed into the VA's
  /// link-state table, §4.2). The VA never allocates toward a dead port;
  /// adaptive routing detours around it.
  void fail_link(PortId p) override;

  /// Advances the router one clock cycle.
  void step(Cycle now) override;

  NodeId id() const override { return id_; }

  // --- Introspection (stats sampling, tests) -----------------------------
  int tx_buffer_occupancy() const override;
  int tx_buffer_slots() const override;
  int rtx_buffer_occupancy() const override;
  int rtx_buffer_slots() const override;
  bool in_recovery() const override { return agent_.in_recovery(); }

  /// Occupancy of one input VC buffer (tests).
  int input_buffer_size(PortId p, VcId v) const override;
  int input_port_occupancy(PortId p) const override {
    return in_port_occ_[p];
  }

  /// Architectural-state hash for lock-step differential comparison.
  std::uint64_t state_digest() const override;

  // --- Invariant monitor hooks (DESIGN.md §4.8) ---------------------------
  void set_monitor(InvariantMonitor* mon) override { mon_ = mon; }
  /// Recomputes the derived state (work masks, per-port occupancy
  /// counters, staged_count_) from scratch and reports any disagreement.
  void check_local_invariants(Cycle now) override;
  long long live_flit_count() const override;
  int held_credits(PortId p, VcId v) const override;

  // --- Permanent link faults (DESIGN.md §4.9) -----------------------------
  bool link_failed(PortId p) const override { return link_dead_[p]; }
  void begin_link_drain(PortId p, Cycle now) override;

  // --- Event-driven scheduling (DESIGN.md §4.10) --------------------------
  /// Wake bookkeeping of the step() that just ran: which wires were
  /// driven and whether any retained state demands a self-tick next
  /// cycle. Consuming resets the wrote masks for the next step.
  WakeInfo take_wake_info();

 private:
  // --- Per-VC state -------------------------------------------------------
  enum class VcState : std::uint8_t {
    kRouting,  ///< No wormhole; route the next head flit that shows up.
    kVaWait,   ///< Head routed; waiting for an output VC.
    kActive,   ///< Wormhole open; flits stream through SA.
    kVaReserved, ///< Deadlock recovery: flits absorbed into the output VC's
                 ///< retransmission buffer; ownership transfers when the
                 ///< current owner's tail retires (deferred allocation).
    kDraining, ///< Unprotected-allocation casualty: discard until tail.
  };
  static constexpr int kNumVcStates = 5;

  // SoA layout (DESIGN.md §4.10): the former per-VC structs are split by
  // role into parallel gid-indexed arrays — flit storage in one contiguous
  // slab (`in_flit_slab_`, viewed through FlitRing), per-input-VC
  // allocation metadata in `inputs_`, per-output-VC allocation metadata in
  // `outputs_` (small POD, hot), and the big retransmission barrels in
  // `out_rtx_` (cold — touched only through the out_work_ mask). The scan
  // loops walk these arrays in ascending-gid order, which is what the
  // golden digests pin. Every array sized from P*V, T or R — those and the
  // arbiter banks — is a span into one heap block, `storage_`, carved
  // once in the constructor and never reallocated.
  struct InputVc {
    FlitRing buf;  ///< View into in_flit_slab_.
    VcState state = VcState::kRouting;  ///< Written only by set_state().
    PortMask candidates = 0;
    PortId out_port = kInvalidPort;
    VcId out_vc = kInvalidVc;
    Cycle last_advance = 0;
    Cycle stall_until = 0;   ///< Logic-error recovery penalty.
    Cycle state_since = 0;
    /// Mirror of buf.front().arrived_stamp (valid while buf is non-empty),
    /// kept by the push/pop sites — the SA nomination scan's same-cycle
    /// check then stays off the flit slab.
    std::uint32_t front_stamp = 0;
    void sync_front_stamp() {
      if (!buf.empty()) front_stamp = buf.front().arrived_stamp;
    }
  };

  struct OutputVc {
    PacketId owner_pid = 0;
    /// Deadlock recovery: the input VC queued to inherit this output VC
    /// when the current owner releases it (deferred VA).
    PacketId waiter_pid = 0;
    int credits = 0;
    std::uint16_t owner_gid = 0;
    std::uint16_t waiter_gid = 0;
    bool allocated = false;  ///< Written only by set_alloc().
    bool tail_sent = false;  ///< Written only by set_tail().
    bool has_waiter = false;
  };

  // PendingNack and OutboxItem live in InlineVecs' raw slots.
  struct PendingNack {
    PortId port;
    VcId vc;
    Cycle send_at;
  };
  static_assert(std::is_trivially_copyable_v<PendingNack> &&
                std::is_trivially_destructible_v<PendingNack>);

  struct OutboxItem {
    PortId port;
    bool is_probe;
    ProbeSignal probe;
    ActivationSignal activation;
  };
  static_assert(std::is_trivially_copyable_v<OutboxItem> &&
                std::is_trivially_destructible_v<OutboxItem>);

  // --- Phases --------------------------------------------------------------
  void phase_maintenance(Cycle now);
  void phase_receive(Cycle now);
  void phase_replay_and_switch(Cycle now);
  void phase_va(Cycle now);
  void phase_rt(Cycle now);
  void phase_deadlock(Cycle now);

  // --- Helpers ---------------------------------------------------------------
  InputVc& ivc(PortId p, VcId v) { return inputs_[gid(p, v)]; }
  const InputVc& ivc(PortId p, VcId v) const { return inputs_[gid(p, v)]; }
  OutputVc& ovc(PortId p, VcId v) { return outputs_[gid(p, v)]; }
  const OutputVc& ovc(PortId p, VcId v) const { return outputs_[gid(p, v)]; }
  int gid(PortId p, VcId v) const { return p * num_vcs_ + v; }
  /// Sizes (first pass, `block` null) or carves (second pass) every span
  /// of storage_ in one fixed order; returns the bytes used. The second
  /// pass constructs every span but the two flit slabs, which stay raw
  /// until a flit is written into a slot.
  std::size_t carve_storage(std::byte* block);
  /// Retransmission barrel of output gid `og` (engaged on link ports only).
  std::optional<RetransmissionBuffer>& orx(int og) { return out_rtx_[og]; }
  const std::optional<RetransmissionBuffer>& orx(int og) const {
    return out_rtx_[og];
  }

  // --- Work lists --------------------------------------------------------
  // One bit per (port, VC) gid; P*V <= 30 so a 32-bit mask covers both
  // sides. A clear input bit proves the VC is empty and idle-routing; a
  // clear output bit proves the VC is unallocated, waiterless and has an
  // empty retransmission barrel. Every phase iterates set bits in
  // ascending gid order — the same order as the full scans they replace —
  // so arbiter, RNG and energy-charge sequences are bit-for-bit identical.
  void update_input_work(int g) {
    const InputVc& vc = inputs_[static_cast<std::size_t>(g)];
    const bool busy = !vc.buf.empty() || vc.state != VcState::kRouting;
    in_work_ = busy ? (in_work_ | (1u << g)) : (in_work_ & ~(1u << g));
  }
  void update_output_work(int og) {
    const OutputVc& out = outputs_[static_cast<std::size_t>(og)];
    const auto& rtx = out_rtx_[static_cast<std::size_t>(og)];
    const bool busy = out.allocated || out.has_waiter ||
                      (rtx && rtx->occupancy() > 0);
    out_work_ = busy ? (out_work_ | (1u << og)) : (out_work_ & ~(1u << og));
  }

  // State masks: each phase walks only the VCs in the state it acts on
  // (DESIGN.md §4.10). Every write of InputVc::state, OutputVc::allocated
  // and OutputVc::tail_sent goes through these mutators, which keep the
  // masks exact; check_local_invariants() rebuilds and compares them.
  std::uint32_t in_state(VcState s) const {
    return state_mask_[static_cast<std::size_t>(s)];
  }
  void set_state(int g, VcState s) {
    InputVc& vc = inputs_[static_cast<std::size_t>(g)];
    state_mask_[static_cast<std::size_t>(vc.state)] &= ~(1u << g);
    state_mask_[static_cast<std::size_t>(s)] |= 1u << g;
    vc.state = s;
  }
  void set_alloc(int og, bool on) {
    outputs_[static_cast<std::size_t>(og)].allocated = on;
    alloc_mask_ = (alloc_mask_ & ~(1u << og)) | (std::uint32_t{on} << og);
  }
  void set_tail(int og, bool on) {
    outputs_[static_cast<std::size_t>(og)].tail_sent = on;
    tail_mask_ = (tail_mask_ & ~(1u << og)) | (std::uint32_t{on} << og);
  }

  bool port_has_neighbor(PortId p) const;
  /// Neighbour exists and the link is not hard-failed.
  bool port_usable(PortId p) const;
  /// Usable and not draining toward hard failure: the gate for *new*
  /// commitments (VA requests, deadlock waiters, RT-fault misdirections).
  /// In-flight wormholes keep using a draining port until their tail.
  bool port_allocatable(PortId p) const {
    return port_usable(p) && (draining_ & port_bit(p)) == 0;
  }
  /// Whether output VC (`p`, `v`) holds a credit for one more flit.
  bool can_consume_credit(PortId p, VcId v) const {
    return ovc(p, v).credits > 0;
  }
  void accept_flit(PortId p, const Flit& f0, Cycle now);
  /// `f` may be the wire channel's just-read slot, valid until the next
  /// tick; it is mutated in place by link-fault injection.
  void handle_incoming_flit(PortId p, Flit& f, Cycle now);
  void handle_probe(PortId p, const ProbeSignal& probe, Cycle now);
  void handle_activation(const ActivationSignal& act, Cycle now);
  /// Sends one flit on an output link: consumes the credit (unless it is a
  /// replay that already holds one), records the NACK-window copy in the
  /// retransmission barrel, and drives the wire. `corrupt_on_wire` models
  /// an in-crossbar upset: the barrel copy is taken before the crossbar,
  /// so only the transmitted copy is wrecked (otherwise a replay would
  /// resend the same corrupt word forever — the §4.5 hazard).
  /// For 1-3-stage routers the flit is copied once, into the wire slot,
  /// and the barrel copy is taken from there.
  void transmit(PortId out_port, VcId out_vc, const Flit& f, Cycle now,
                bool consume_credit, bool corrupt_on_wire = false);
  /// Final bookkeeping at the moment a flit actually leaves on the wires:
  /// tail tracking and the retransmission-barrel copy (with the §4.5
  /// stored-copy upset process). Runs inside transmit() for 1-3-stage
  /// routers and at the staged-register flush for 4-stage ones.
  void finalize_transmission(PortId o, VcId v, const Flit& f, Cycle now);
  void eject(const Flit& f, PortId in_port, VcId in_vc, Cycle now);
  void send_credit(PortId p, VcId v);
  void release_input_after_tail(PortId p, VcId v, Cycle now);
  void maybe_release_outputs(Cycle now);
  /// Online reconfiguration (DESIGN.md §4.12): when the topology's route
  /// epoch has moved since this router last looked, recompute every
  /// kVaWait candidate set against the rebuilt distance tables.
  void rehome_stale_routes();
  bool vc_blocked(const InputVc& vc, Cycle now) const;
  /// Next link of a blocked dependency chain through an input VC.
  std::optional<std::pair<PortId, VcId>> resolve_chain(const InputVc& vc) const;
  void run_ac_on_va(std::size_t new_entry, Cycle now);
  void queue_control(PortId port, const ProbeSignal& p);
  void queue_control(PortId port, const ActivationSignal& a);
  void flush_outbox();
  void charge(power::EnergyEvent e, std::uint64_t times = 1);

  // Input-side VA request: the (port, vc) this input VC asks for, if any.
  // `in_port`/`in_vc` identify the requesting input VC (escape-VC policy
  // depends on how the packet arrived).
  std::optional<std::pair<PortId, VcId>> pick_va_request(InputVc& vc,
                                                         PortId in_port,
                                                         VcId in_vc,
                                                         int rotation);

  // RT fault handling; returns the (possibly corrupted) candidate mask and
  // applies stalls/penalties for emulated downstream detection.
  PortMask apply_rt_fault(InputVc& vc, PortMask correct, Cycle now);

  // --- Immutable configuration ------------------------------------------
  NodeId id_;
  const SimConfig& cfg_;
  const Topology& topo_;
  int num_vcs_;
  int num_ports_ = kNumDirections;
  /// The fuzz plant cfg_.test_mutation names, parsed once.
  TestMutation mutation_ = TestMutation::kNone;

  FaultInjector* faults_;
  // Per-process upset draws with rate <= 0 return false without consuming
  // RNG state (Rng::bernoulli short-circuits), so skipping the call when
  // the rate is zero is behaviour-preserving — these flags hoist that
  // rate check out of the per-event hot paths.
  bool f_rt_live_ = false;
  bool f_va_live_ = false;
  bool f_sa_live_ = false;
  bool f_rtx_live_ = false;
  bool f_hs_live_ = false;
  power::EnergyMeter* meter_;
  StatsCollector* stats_;
  EjectFn eject_;
  DropFn drop_;
  InvariantMonitor* mon_ = nullptr;  ///< Null unless check_invariants.

  // --- Wiring ---------------------------------------------------------------
  std::array<Wire*, kNumDirections> in_wires_{};
  std::array<Wire*, kNumDirections> out_wires_{};
  /// Consumer-side wire signal summaries (Wire::kCur* bits), written by
  /// Wire::tick through registered slots: in_sig_[p] mirrors
  /// in_wires_[p]->cur_mask, out_sig_[p] mirrors out_wires_[p]->cur_mask.
  std::array<std::uint8_t, kNumDirections> in_sig_{};
  std::array<std::uint8_t, kNumDirections> out_sig_{};

  // --- State -----------------------------------------------------------------
  /// The one block every span below points into (carve_storage).
  std::unique_ptr<std::byte[]> storage_;
  /// Gid-major contiguous flit storage for every input VC
  /// (vc_buffer_depth slots each); inputs_[g].buf is a FlitRing view
  /// into it. Raw until written.
  std::span<Flit> in_flit_slab_;
  std::span<InputVc> inputs_;    // P*V
  std::span<OutputVc> outputs_;  // P*V (hot allocation metadata)
  /// Gid-major slot storage for every link-port barrel (stride
  /// retransmission_depth); out_rtx_[g] views its window. Empty when no
  /// barrel is engaged; raw until written.
  std::span<RetransmissionBuffer::Slot> rtx_slab_;
  /// P*V retransmission barrels, split out of OutputVc so the hot scans
  /// walk small PODs; engaged on link-port gids only.
  std::span<std::optional<RetransmissionBuffer>> out_rtx_;
  std::span<Cycle> drop_until_;  // P*V: HBH drop window per input VC.
  ErrorCheckUnit checker_;
  AllocationComparator ac_;
  DeadlockAgent agent_;

  std::span<RoundRobinArbiter> va_arbs_;     // per output VC, over P*V gids
  std::span<RoundRobinArbiter> sa_in_arbs_;  // per input port, over V VCs
  std::span<RoundRobinArbiter> sa_out_arbs_; // per output port, over P ports
  std::span<RoundRobinArbiter> replay_arbs_; // per output port, over V VCs
  std::span<int> va_rotation_;  // per input gid: rotating VC preference

  std::array<bool, kNumDirections> port_busy_{};     // per-cycle ST usage
  std::array<bool, kNumDirections> link_dead_{};     // hard faults (4.2)

  // --- Mid-run link kills (§4.9) -------------------------------------------
  /// Ports draining toward hard-failure: no new allocations; once the
  /// port's output VCs and staged register fall idle it becomes dead.
  std::uint8_t draining_ = 0;
  /// Last Topology::route_epoch() this router reconciled against. When the
  /// topology's epoch moves (an accepted storm kill), step()
  /// re-homes every kVaWait candidate set against the fresh distance tables
  /// before allocating (DESIGN.md §4.12). Deliberately NOT part of
  /// state_digest(): it is unobservable for idle routers, and folding
  /// it in would make scan and event kernels diverge on who noticed first.
  std::uint32_t route_epoch_seen_ = 0;

  /// 4-stage pipeline: the dedicated switch-traversal register. `wire`
  /// is what travels (possibly wrecked by an unprotected SA upset);
  /// `stored` is the clean pre-crossbar copy for the retransmission
  /// barrel, recorded at flush time so NACK-loop ages line up.
  struct StagedFlit {
    Flit wire;
    Flit stored;
    VcId vc;
  };
  static_assert(std::is_trivially_destructible_v<std::optional<StagedFlit>>);
  /// One register per port, carved from storage_ at 4 stages only: empty
  /// on 1-3-stage routers, which never stage a flit. Read it through
  /// staged().
  std::span<std::optional<StagedFlit>> staged_;
  int staged_count_ = 0;  ///< Occupied entries of staged_ (fast skip).
  /// Port `p`'s staged flit, or null when its register is empty or the
  /// router has none.
  const StagedFlit* staged(PortId p) const {
    if (staged_.empty() || !staged_[p]) return nullptr;
    return &*staged_[p];
  }
  InlineVec<PendingNack, 8> pending_nacks_;
  InlineVec<OutboxItem, 8> outbox_;
  /// Any input-buffer slot freed this cycle (SA, drain, absorb, eject) —
  /// feeds DeadlockAgent::note_progress for the fallback-recovery trigger.
  bool progress_this_cycle_ = false;

  /// Ports whose *outgoing* wire carried a forward signal this step
  /// (flit/probe/activation) and ports whose *incoming* bundle carried a
  /// backward signal (credit/NACK; bit kLocalPort = PE credit). Cleared by
  /// take_wake_info().
  std::uint8_t wrote_fwd_ = 0;
  std::uint8_t wrote_back_ = 0;

  // --- Hot-path scratch and work masks -----------------------------------
  std::uint32_t in_work_ = 0;   ///< Input VCs with buffered flits or state.
  std::uint32_t out_work_ = 0;  ///< Output VCs allocated/waited/occupied.
  /// Input gids per VcState (set_state); all kRouting at construction.
  std::array<std::uint32_t, kNumVcStates> state_mask_{};
  std::uint32_t alloc_mask_ = 0;  ///< Output gids with `allocated` set.
  std::uint32_t tail_mask_ = 0;   ///< Output gids with `tail_sent` set.
  std::span<std::uint32_t> va_reqs_;  // per output gid: requesting inputs
  std::span<std::pair<PortId, VcId>> va_want_;  // per input gid: request
  std::uint32_t va_req_ogs_ = 0;  ///< Output gids with requests this cycle.
  std::uint32_t absorbed_ = 0;    ///< Output gids absorbed-into this cycle.
  /// Running input-buffer occupancy per input port, bumped at every push
  /// and pop: buffer sampling sums it, per-link stall accounting reads it.
  std::array<int, kNumDirections> in_port_occ_{};
  /// Running sum of retransmission-barrel occupancy across all output VCs
  /// (sampling). Updated at every barrel mutation; a NACK rollback moves
  /// entries sent->pending without changing the sum.
  int rtx_occ_ = 0;

  // --- Retransmission-barrel summary caches -------------------------------
  // The barrels sit behind a std::optional and a slab pointer; the
  // per-cycle scans must not chase them just to learn "empty". These
  // mirrors are refreshed by refresh_rtx_cache() after every barrel
  // mutation.
  std::uint32_t rtx_sent_mask_ = 0;     ///< Output gids with sent entries.
  std::uint32_t rtx_pending_mask_ = 0;  ///< Output gids with pending entries.
  /// Per output gid: next_retire_at() mirror (valid while the sent bit is
  /// set). rtx_min_retire_ is a lower-bound watermark over the set bits —
  /// it may be stale-low (cheap extra scan), never stale-high.
  std::span<Cycle> rtx_retire_at_;
  Cycle rtx_min_retire_ = 0;
  void refresh_rtx_cache(int og) {
    const auto& rtx = out_rtx_[static_cast<std::size_t>(og)];
    const std::uint32_t bit = 1u << og;
    if (rtx && rtx->sent_count() > 0) {
      rtx_sent_mask_ |= bit;
      const Cycle due = rtx->next_retire_at();
      rtx_retire_at_[static_cast<std::size_t>(og)] = due;
      if (rtx_min_retire_ > due) rtx_min_retire_ = due;
    } else {
      rtx_sent_mask_ &= ~bit;
    }
    if (rtx && rtx->has_pending()) {
      rtx_pending_mask_ |= bit;
    } else {
      rtx_pending_mask_ &= ~bit;
    }
  }
};

}  // namespace ftnoc
