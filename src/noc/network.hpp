#pragma once
// The assembled on-chip network: routers, inter-router wires, processing
// elements (traffic sources/sinks), the shared fault injector and energy
// meter, and the end-to-end (E2E) retransmission machinery that lives at
// the network edge.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/ring_deque.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "common/types.hpp"
#include "core/fault_injector.hpp"
#include "core/flit.hpp"
#include "core/invariants.hpp"
#include "noc/packet_table.hpp"
#include "noc/router.hpp"
#include "noc/router_iface.hpp"
#include "noc/stats.hpp"
#include "noc/trace.hpp"
#include "noc/traffic.hpp"
#include "power/energy_model.hpp"

namespace ftnoc {

/// A processing element: generates packets and injects flits into its
/// router's local port under credit flow control. It carries packet ids
/// only: each flit is built from the packet's record in the network's
/// packet table as it is sent. Under E2E that open record is the source's
/// copy of the packet, kept until a clean delivery closes it.
class ProcessingElement {
 public:
  ProcessingElement(NodeId self, const SimConfig& cfg, const Topology& topo,
                    Wire* to_router, StatsCollector* stats,
                    PacketTable* packets, Rng rng);

  /// One cycle: read credits, maybe generate a packet, move packets into
  /// free local-VC lanes, send at most one flit. `router_in_recovery`
  /// back-pressures *new* packets while the attached router runs deadlock
  /// recovery ("no new packets are allowed to enter the transmission
  /// buffers involved in the deadlock recovery", §3.2.1); flits of packets
  /// already in flight keep streaming. Returns true when a flit was driven
  /// onto the PE-to-router wire — the event kernel wakes the router and
  /// marks the wire live.
  bool step(Cycle now, PacketId& next_packet_id, bool router_in_recovery);

  /// Takes a packet whose record just opened in the packet table: counts
  /// it and queues it.
  void add_packet(PacketId pid);

  /// E2E: destination reported corruption — queue the packet again, ahead
  /// of new traffic; its flits are rebuilt clean from the record. A NACK
  /// for a packet whose record has closed is stale and ignored.
  void e2e_nack(PacketId pid);

  std::size_t pending_packets() const { return pending_.size(); }

  /// Free injection credits of one local-VC lane (credit-conservation walk).
  int lane_credits(VcId v) const { return lanes_.at(v).credits; }

  /// Architectural-state hash (lock-step differential comparison), O(lanes)
  /// however long the queue grows: it enters through a running fold of its
  /// ids' hashes. A packet's flits are a function of its id, its record and
  /// `self`, and the network digest covers the records.
  std::uint64_t state_digest() const;

 private:
  /// One local-VC wormhole: the packet being injected, sent front to
  /// back through a cursor. A lane holds one packet at a time.
  struct Lane {
    PacketId pid = 0;
    std::uint32_t length = 0;  ///< Flits in the packet; 0 when idle.
    std::uint32_t next = 0;    ///< Seq of the next flit to send.
    int credits = 0;
    std::uint32_t remaining() const { return length - next; }
  };

  /// Queues `pid` at the back, or at the front (E2E retransmission).
  void enqueue(PacketId pid, bool front);

  NodeId self_;
  const SimConfig& cfg_;
  Wire* wire_;
  StatsCollector* stats_;
  PacketTable* packets_;
  std::optional<TrafficSource> source_;
  RingDeque<PacketId> pending_;
  /// One lane per local VC, inline: lanes_[0 .. num_lanes_).
  std::array<Lane, kMaxVcs> lanes_{};
  int num_lanes_ = 0;
  int send_rotation_ = 0;
  int lane_flits_ = 0;  ///< Flits held across lanes_; 0 skips the send scan.

  // --- Digest folds (state_digest) -------------------------------------------
  /// Positional fold of the pending ids' hashes, sum of hash_k * B^k over
  /// queue positions k (mod 2^64), and B^pending_.size(); a push at either
  /// end or a pop at the front updates both in O(1).
  std::uint64_t pending_fold_ = 0;
  std::uint64_t pending_pow_ = 1;
};

/// Observer invoked for every delivered (clean) message:
/// (dest, tail flit, delivery cycle). The packet's record is still open in
/// Network::packets() during the call.
using DeliveryListener =
    std::function<void(NodeId, const Flit&, Cycle)>;

class Network {
 public:
  explicit Network(const SimConfig& cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advances the whole network one clock cycle. One body serves both
  /// kernels (DESIGN.md §4.10); they differ only in which routers are
  /// stepped and which wires are ticked.
  void step();

  Cycle now() const { return now_; }
  const Topology& topology() const { return topo_; }
  const SimConfig& config() const { return cfg_; }

  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }
  power::EnergyMeter& meter() { return meter_; }
  FaultInjector& faults() { return faults_; }

  /// The concrete optimized router (tests poking kernel internals). Only
  /// legal when the network was not built with `use_reference_router`.
  Router& router(NodeId n);
  const Router& router(NodeId n) const;
  /// Implementation-agnostic view (fuzz harness, generic instrumentation).
  RouterIface& router_base(NodeId n) { return *routers_.at(n); }
  const RouterIface& router_base(NodeId n) const { return *routers_.at(n); }
  ProcessingElement& pe(NodeId n) { return pes_.at(n); }

  /// Null unless the config asked for invariant checking.
  InvariantMonitor* monitor() { return monitor_.get(); }

  /// Per-packet records of every packet created and not yet delivered.
  PacketTable& packets() { return packets_; }
  const PacketTable& packets() const { return packets_; }

  /// Architectural-state hash over routers, wires and PEs — the lock-step
  /// comparison point of the differential fuzz harness.
  std::uint64_t state_digest() const;

  /// Builds and queues a packet for injection at `src` (tests/examples).
  PacketId inject_packet(NodeId src, NodeId dest, int length);

  /// Schedules a packet trace for replay: each record is injected at its
  /// cycle (on top of any synthetic sources; set injection_rate = 0 for a
  /// pure trace-driven run). Records must be sorted by cycle and at or
  /// after the current cycle.
  void load_trace(std::vector<TraceRecord> records);

  /// True when a trace/workload was loaded (possibly already drained).
  bool trace_loaded() const { return !trace_.empty(); }
  /// True when every loaded record has been released (or dropped).
  bool trace_drained() const { return trace_next_ >= trace_.size(); }

  /// Whole-run kernel work: router steps and wire ticks summed over every
  /// cycle. Deterministic, so the golden tests pin the event kernel's
  /// totals next to their digests.
  std::uint64_t router_steps() const { return router_steps_; }
  std::uint64_t wire_ticks() const { return wire_ticks_; }

  /// Per-directed-link counters (cfg.link_stats only; empty otherwise).
  /// Index = node * 4 + direction, matching link_wires_.
  const std::vector<std::uint64_t>& link_fwd_counts() const {
    return link_fwd_;
  }
  const std::vector<std::uint64_t>& link_stall_counts() const {
    return link_stall_;
  }

  void set_delivery_listener(DeliveryListener fn) {
    delivery_listener_ = std::move(fn);
  }

  /// Network-wide buffer occupancy fractions this instant (Figures 8/9),
  /// recomputed by a full scan of every router.
  double tx_buffer_fraction() const;
  double rtx_buffer_fraction() const;
  /// The same fractions from the running totals that step() samples. After
  /// every step they equal the full scans above exactly (integer sums).
  double sampled_tx_fraction() const {
    return tx_slots_total_ ? static_cast<double>(tx_occ_total_) /
                                 static_cast<double>(tx_slots_total_)
                           : 0.0;
  }
  double sampled_rtx_fraction() const {
    return rtx_slots_total_ ? static_cast<double>(rtx_occ_total_) /
                                  static_cast<double>(rtx_slots_total_)
                            : 0.0;
  }

 private:
  void on_eject(NodeId dest, const Flit& f, Cycle now);
  /// Delivers the E2E NACKs due this cycle to their source PEs, in the
  /// order they were sent.
  void fire_due_events();
  /// Releases every trace record due this cycle into its source PE's
  /// queue.
  void release_due_trace();
  /// Accumulates the per-link forwarded/stalled counters from the settled
  /// post-tick wire state (cfg_.link_stats only, measurement window only).
  /// Reading architectural state that is byte-identical across kernels and
  /// router implementations keeps the counters identical too. Visits only
  /// the wires ticked this cycle and, of the routers stepped this cycle,
  /// those holding buffered flits.
  void accumulate_link_stats();
  int hop_distance(NodeId a, NodeId b) const;
  /// End-of-cycle structural walks: per-router local checks, the
  /// network-wide flit-conservation ledger and the per-link credit sums.
  void run_invariant_walks();

  // --- Kernel scheduling (DESIGN.md §4.10) ---------------------------------
  /// Event kernel: steps the routers due this cycle (wheel pop, ascending
  /// node id) and schedules whatever their wake reports ask for.
  void step_woken_routers();
  /// Event kernel: ticks only wires with signals in flight; settled wires
  /// leave the live list.
  void tick_live_wires();
  /// Refreshes router `i`'s terms of the running buffer-occupancy totals
  /// (called right after each router step, the only place they change).
  void note_occupancy(NodeId i, int tx, int rtx) {
    tx_occ_total_ += tx - tx_occ_cache_[i];
    tx_occ_cache_[i] = tx;
    rtx_occ_total_ += rtx - rtx_occ_cache_[i];
    rtx_occ_cache_[i] = rtx;
  }
  /// Schedules router `n` to be stepped at cycle `due`, inside the wheel
  /// horizon (now_ < due < now_ + wheel_slots_): sets a bit in the due
  /// slot's node mask.
  void schedule(NodeId n, Cycle due);
  /// Adds a wire to the tick list (dedup'd); it stays until it settles.
  void mark_wire_live(std::uint32_t wid);
  /// Kills link (`n`, `dir`) unless it is already dead or the kill would
  /// partition the mesh: fails it in the topology (bumping the route
  /// epoch), counts it, and starts draining both endpoint routers.
  /// Same-cycle kills compose sequentially — the topology already holds
  /// every previously accepted kill when the next veto is evaluated, so a
  /// batch of kills that are individually safe but jointly partitioning
  /// is trimmed to a safe prefix (tests/test_fault_model.cpp pins this).
  void try_kill_link(NodeId n, Direction dir);
  /// Fires every cfg_.storm_kills entry due by now_ (single cursor).
  void fire_storm_kills();
  std::uint32_t local_wire_id(NodeId n) const {
    return static_cast<std::uint32_t>(link_wires_.size()) +
           static_cast<std::uint32_t>(n);
  }
  Wire* wire_by_id(std::uint32_t wid) { return &wires_[wid]; }
  /// The PE -> router injection wire of node `n`.
  Wire* local_wire(std::size_t n) {
    return &wires_[link_wires_.size() + n];
  }
  const Wire* local_wire(std::size_t n) const {
    return &wires_[link_wires_.size() + n];
  }

  /// An E2E NACK on its way back to the corrupted packet's source.
  struct Nack {
    NodeId target;  ///< Source PE, which re-queues the packet.
    PacketId pid;
  };

  SimConfig cfg_;
  Topology topo_;
  StatsCollector stats_;
  power::EnergyMeter meter_;
  Rng root_rng_;
  FaultInjector faults_;
  Cycle now_ = 0;
  PacketId next_packet_id_ = 1;

  std::vector<std::unique_ptr<RouterIface>> routers_;
  /// By value, reserved once: routers and wires never point at a PE.
  std::vector<ProcessingElement> pes_;
  std::unique_ptr<InvariantMonitor> monitor_;
  // Every wire, by value, indexed by wire id: the directed inter-router
  // wires (node * 4 + direction; the slots at mesh edges stay idle), then
  // one PE -> router injection wire per node. Sized once in the
  // constructor; routers and PEs hold pointers into it.
  std::vector<Wire> wires_;
  // Directed inter-router wires: index = node * 4 + direction; nullptr at
  // mesh edges.
  std::vector<Wire*> link_wires_;

  // One record per packet from creation to delivery: birth and injection
  // cycles, ground-truth payloads and the ejection progress (a lost NACK
  // or dropped flit shows up as an incomplete message). PEs write it at
  // creation and injection; on_eject reads it.
  PacketTable packets_;

  // Trace replay: sorted records not yet injected.
  std::vector<TraceRecord> trace_;
  std::size_t trace_next_ = 0;

  // Per-link analytics (cfg.link_stats): flits forwarded / stall cycles
  // per directed wire.
  std::vector<std::uint64_t> link_fwd_;
  std::vector<std::uint64_t> link_stall_;
  /// Per (node, input direction), node * 4 + direction: the id of the
  /// neighbour's wire that feeds that port, or kNoWire at a mesh edge.
  static constexpr std::uint32_t kNoWire = ~0u;
  std::vector<std::uint32_t> link_upstream_;

  // Fault-storm timeline (sorted by cycle; validate() enforces): next
  // cfg_.storm_kills entry to fire. A vetoed kill is skipped, not retried.
  std::size_t next_storm_kill_ = 0;

  DeliveryListener delivery_listener_;
  /// Chip-wide wired-OR "deadlock recovery in progress" line (sampled at
  /// the end of each cycle; gates new-packet injection the next cycle).
  bool recovery_line_ = false;

  // --- Kernel state ---------------------------------------------------------
  /// True when this network runs the per-cycle full scan (reference
  /// routers; optimized routers always run the event wheel).
  bool scan_kernel_ = false;
  /// Devirtualized view of routers_ for the event kernel's hot loop
  /// (only populated for optimized-router networks).
  std::vector<Router*> fast_routers_;
  /// The event wheel holds everything that falls due later; cycle c maps
  /// to slot (c & (wheel_slots_ - 1)). The slot count is a power of two
  /// of at least 256 and more than W + H, so the longest NACK delay
  /// (W + H - 1) stays inside the horizon; a router timer past it wakes
  /// the router at timer - k * (wheel_slots_ - 1), the nearest such cycle
  /// inside the horizon, where it is re-reported.
  std::size_t wheel_slots_ = 0;
  /// Router wake masks (event kernel only), one flat block: wheel_words_
  /// words per slot, the node bitmask of routers due that cycle. Spurious
  /// entries are harmless (an idle router's step is a no-op), so duplicate
  /// schedules need no dedup.
  std::vector<std::uint64_t> wheel_;
  std::size_t wheel_words_ = 0;
  std::uint64_t* wheel_slot(Cycle c) {
    return wheel_.data() + (c & (wheel_slots_ - 1)) * wheel_words_;
  }
  /// E2E NACKs due each slot, in the order they were sent (E2E networks
  /// under both kernels; empty otherwise). A slot's vector keeps its
  /// capacity when it is popped, so a NACK allocates nothing in steady
  /// state.
  std::vector<std::vector<Nack>> nack_wheel_;
  /// Routers stepped this cycle, ascending — feeds the recovery-line OR
  /// (membership-sensitive) and the link-stall walk. The scan kernel
  /// fills it once with every node.
  std::vector<NodeId> stepped_;
  /// Wires with signals in flight: id < link_wires_.size() is a link wire,
  /// else a local (PE) wire. Mask is the dedup bitset for the list.
  std::vector<std::uint32_t> live_wires_;
  std::vector<std::uint64_t> live_wire_mask_;
  std::uint64_t router_steps_ = 0;
  std::uint64_t wire_ticks_ = 0;
  /// Running buffer-occupancy totals and each router's last-seen terms
  /// (note_occupancy). Slot totals are constant after construction.
  std::vector<int> tx_occ_cache_;
  std::vector<int> rtx_occ_cache_;
  long long tx_occ_total_ = 0;
  long long rtx_occ_total_ = 0;
  long long tx_slots_total_ = 0;
  long long rtx_slots_total_ = 0;
};

}  // namespace ftnoc
