#pragma once
// The allocation-happy reference router: a deliberately simple, from-scratch
// implementation of exactly the same pipeline, fault-tolerance and deadlock
// machinery as Router, used as the oracle of the differential fuzz harness
// (tools/ftnoc_fuzz).
//
// What it deliberately does NOT have is every piece of derived state PR 3's
// optimized cycle kernel introduced:
//   * no in_work_/out_work_ bitmasks — every phase is a full ascending scan
//     over all (port, VC) pairs with the eligibility predicates inlined;
//   * no occupancy running counters, no staged_count_ —
//     occupancies are recounted on demand;
//   * no wake bookkeeping — a reference network steps every router every
//     cycle (the scan kernel), and on a truly idle router the phases are
//     provable no-ops, which is exactly the property the differential
//     comparison against the event-scheduled optimized kernel verifies;
//   * plain std::deque/std::vector instead of slab rings and
//     InlineVec, and barrels that own their slots instead of a router slab.
//
// Because the optimized kernel iterates work-mask bits in ascending gid
// order — the same order as these full scans — the two implementations make
// identical arbiter, RNG and energy-charge sequences whenever the masks are
// correct. Any disagreement in per-cycle state digests is a bug in one of
// them.

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/config.hpp"
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
#include "noc/router_iface.hpp"
#include "noc/routing.hpp"
#include "noc/stats.hpp"
#include "power/energy_model.hpp"

namespace ftnoc {

class ReferenceRouter final : public RouterIface {
 public:
  ReferenceRouter(NodeId id, const SimConfig& cfg, const Topology& topo,
                  FaultInjector* faults, power::EnergyMeter* meter,
                  StatsCollector* stats);

  void connect(PortId p, Wire* in, Wire* out) override;
  void set_eject_fn(EjectFn fn) override { eject_ = std::move(fn); }
  void set_drop_fn(DropFn fn) override { drop_ = std::move(fn); }
  void fail_link(PortId p) override;
  void step(Cycle now) override;

  NodeId id() const override { return id_; }

  int tx_buffer_occupancy() const override;
  int tx_buffer_slots() const override;
  int rtx_buffer_occupancy() const override;
  int rtx_buffer_slots() const override;
  bool in_recovery() const override { return agent_.in_recovery(); }
  int input_buffer_size(PortId p, VcId v) const override;
  int input_port_occupancy(PortId p) const override;
  std::uint64_t state_digest() const override;

  void set_monitor(InvariantMonitor* mon) override { mon_ = mon; }
  long long live_flit_count() const override;
  int held_credits(PortId p, VcId v) const override;

  bool link_failed(PortId p) const override { return link_dead_[p]; }
  void begin_link_drain(PortId p, Cycle now) override;

 private:
  enum class VcState : std::uint8_t {
    kRouting,
    kVaWait,
    kActive,
    kVaReserved,
    kDraining,
  };

  struct InputVc {
    std::deque<Flit> buf;
    VcState state = VcState::kRouting;
    PortMask candidates = 0;
    PortId out_port = kInvalidPort;
    VcId out_vc = kInvalidVc;
    Cycle last_advance = 0;
    Cycle stall_until = 0;
    Cycle state_since = 0;
  };

  struct OutputVc {
    bool allocated = false;
    std::uint16_t owner_gid = 0;
    PacketId owner_pid = 0;
    bool tail_sent = false;
    int credits = 0;
    std::optional<RetransmissionBuffer> rtx;
    bool has_waiter = false;
    std::uint16_t waiter_gid = 0;
    PacketId waiter_pid = 0;
  };

  struct PendingNack {
    PortId port;
    VcId vc;
    Cycle send_at;
  };

  struct OutboxItem {
    PortId port;
    bool is_probe;
    ProbeSignal probe;
    ActivationSignal activation;
  };

  struct StagedFlit {
    Flit wire;
    Flit stored;
    VcId vc;
  };

  void phase_maintenance(Cycle now);
  void phase_receive(Cycle now);
  void phase_replay_and_switch(Cycle now);
  void phase_va(Cycle now);
  void phase_rt(Cycle now);
  void phase_deadlock(Cycle now);

  InputVc& ivc(PortId p, VcId v) { return inputs_[gid(p, v)]; }
  const InputVc& ivc(PortId p, VcId v) const { return inputs_[gid(p, v)]; }
  OutputVc& ovc(PortId p, VcId v) { return outputs_[gid(p, v)]; }
  const OutputVc& ovc(PortId p, VcId v) const { return outputs_[gid(p, v)]; }
  int gid(PortId p, VcId v) const { return p * num_vcs_ + v; }

  bool port_has_neighbor(PortId p) const;
  bool port_usable(PortId p) const;
  /// Whether output VC (`p`, `v`) holds a credit for one more flit.
  bool can_consume_credit(PortId p, VcId v) const {
    return ovc(p, v).credits > 0;
  }
  bool port_allocatable(PortId p) const {
    return port_usable(p) && (draining_ & port_bit(p)) == 0;
  }
  void accept_flit(PortId p, Flit f, Cycle now);
  void handle_incoming_flit(PortId p, Flit f, Cycle now);
  void handle_probe(PortId p, const ProbeSignal& probe, Cycle now);
  void handle_activation(const ActivationSignal& act, Cycle now);
  void transmit(PortId out_port, VcId out_vc, Flit f, Cycle now,
                bool consume_credit, bool corrupt_on_wire = false);
  void finalize_transmission(PortId o, VcId v, const Flit& f, Cycle now);
  void eject(const Flit& f, PortId in_port, VcId in_vc, Cycle now);
  void send_credit(PortId p, VcId v);
  void release_input_after_tail(PortId p, VcId v, Cycle now);
  void maybe_release_outputs(Cycle now);
  /// Online reconfiguration (DESIGN.md §4.12), mirrored from Router.
  void rehome_stale_routes();
  bool vc_blocked(const InputVc& vc, Cycle now) const;
  std::optional<std::pair<PortId, VcId>> resolve_chain(const InputVc& vc) const;
  void run_ac_on_va(std::size_t new_entry, Cycle now);
  void queue_control(PortId port, const ProbeSignal& p);
  void queue_control(PortId port, const ActivationSignal& a);
  void flush_outbox();
  void charge(power::EnergyEvent e, std::uint64_t times = 1);
  std::optional<std::pair<PortId, VcId>> pick_va_request(InputVc& vc,
                                                         PortId in_port,
                                                         VcId in_vc,
                                                         int rotation);
  PortMask apply_rt_fault(InputVc& vc, PortMask correct, Cycle now);

  NodeId id_;
  const SimConfig& cfg_;
  const Topology& topo_;
  int num_vcs_;
  int num_ports_ = kNumDirections;

  FaultInjector* faults_;
  power::EnergyMeter* meter_;
  StatsCollector* stats_;
  EjectFn eject_;
  DropFn drop_;
  InvariantMonitor* mon_ = nullptr;

  std::array<Wire*, kNumDirections> in_wires_{};
  std::array<Wire*, kNumDirections> out_wires_{};

  std::vector<InputVc> inputs_;
  std::vector<OutputVc> outputs_;
  std::vector<Cycle> drop_until_;
  ErrorCheckUnit checker_;
  AllocationComparator ac_;
  DeadlockAgent agent_;

  ArbiterBank va_arbs_;
  ArbiterBank sa_in_arbs_;
  ArbiterBank sa_out_arbs_;
  ArbiterBank replay_arbs_;
  std::vector<int> va_rotation_;

  std::array<bool, kNumDirections> port_busy_{};
  std::array<bool, kNumDirections> link_dead_{};

  std::uint8_t draining_ = 0;
  /// Last Topology::route_epoch() reconciled (mirrors Router; not part of
  /// state_digest for the same observability reasons).
  std::uint32_t route_epoch_seen_ = 0;

  std::array<std::optional<StagedFlit>, kNumDirections> staged_;
  std::vector<PendingNack> pending_nacks_;
  std::vector<OutboxItem> outbox_;
  bool progress_this_cycle_ = false;
};

}  // namespace ftnoc
