#pragma once
// The wire-level router contract shared by the optimized pipeline kernel
// (Router) and the allocation-happy reference model (ReferenceRouter).
//
// Both implementations speak exactly the same signals — Wire bundles in,
// Wire bundles out, an eject callback toward the local PE — so the Network
// can instantiate either behind this interface and the differential fuzz
// harness can step two networks in lock-step and compare state digests.
// Everything behavioural lives behind virtual step(); the introspection
// surface exists for stats sampling, the invariant monitor's structural
// walks and the per-cycle digest comparison.

#include <cstdint>
#include <functional>
#include <type_traits>

#include "common/types.hpp"
#include "core/deadlock.hpp"
#include "core/flit.hpp"
#include "noc/channel.hpp"

namespace ftnoc {

class InvariantMonitor;

/// One returned buffer slot for a VC.
struct Credit {
  VcId vc = kInvalidVc;
};
static_assert(std::is_trivially_copyable_v<Credit> &&
              std::is_trivially_destructible_v<Credit>);

/// Link-level negative acknowledgement for a VC (HBH retransmission).
struct NackMsg {
  VcId vc = kInvalidVc;
};
static_assert(std::is_trivially_copyable_v<NackMsg> &&
              std::is_trivially_destructible_v<NackMsg>);

/// All wires of one *directed* link A->B. Forward signals (flit, probe,
/// activation) travel A->B; credit and NACK travel B->A on the same bundle.
///
/// Producers write through the Wire (write(...)), never through a channel
/// directly: each write also records its channel in next_mask, so the
/// clock edge touches only channels that hold or will hold a value.
struct Wire {
  /// User-provided, so the Network's vector::resize does not zero-fill
  /// the channels' raw slots before running the member initializers.
  Wire() noexcept {}

  /// Which channels have a readable value this cycle (kCur* bits), set at
  /// tick time. The per-cycle consumer polls touch this one byte instead
  /// of five channels spread over several cache lines. Consuming a value
  /// does not clear its bit: each channel has exactly one consumer that
  /// polls at most once per cycle, and the next tick recomputes the mask.
  std::uint8_t cur_mask = 0;
  /// Which channels were written this cycle (kCur* bits); becomes
  /// cur_mask at the next tick.
  std::uint8_t next_mask = 0;
  /// Optional consumer-side mirrors of cur_mask, written at tick time.
  /// A router registers a slot inside its own contiguous signal array for
  /// each bundle it consumes (fwd side for its in-wires, back side for its
  /// out-wires), so its per-cycle wire polls stay on one cache line
  /// instead of chasing ten scattered Wire objects.
  std::uint8_t* fwd_sig = nullptr;
  std::uint8_t* back_sig = nullptr;
  static constexpr std::uint8_t kCurFlit = 1u << 0;
  static constexpr std::uint8_t kCurCredit = 1u << 1;
  static constexpr std::uint8_t kCurNack = 1u << 2;
  static constexpr std::uint8_t kCurProbe = 1u << 3;
  static constexpr std::uint8_t kCurActivation = 1u << 4;
  /// Forward-travelling signals (consumed by the downstream router).
  static constexpr std::uint8_t kCurFwd = kCurFlit | kCurProbe | kCurActivation;
  /// Backward-travelling signals (consumed by the upstream producer).
  static constexpr std::uint8_t kCurBack = kCurCredit | kCurNack;

  Channel<Flit> flit;
  MultiChannel<Credit> credit;
  Channel<NackMsg> nack;
  Channel<ProbeSignal> probe;
  Channel<ActivationSignal> activation;

  void write(const Flit& f) { write_slot(f); }
  /// Writes a flit and returns its wire slot (Channel::write_slot).
  Flit& write_slot(const Flit& f) {
    next_mask |= kCurFlit;
    return flit.write_slot(f);
  }
  void write(Credit c) {
    credit.write(c);
    next_mask |= kCurCredit;
  }
  void write(NackMsg n) {
    nack.write(n);
    next_mask |= kCurNack;
  }
  void write(const ProbeSignal& p) {
    probe.write(p);
    next_mask |= kCurProbe;
  }
  void write(const ActivationSignal& a) {
    activation.write(a);
    next_mask |= kCurActivation;
  }

  /// The clock edge: flips only the channels holding a current or a next
  /// value (every other channel is idle, and ticking it is a no-op).
  void tick() {
    const auto touch = static_cast<std::uint8_t>(cur_mask | next_mask);
    if (touch & kCurFlit) flit.tick();
    if (touch & kCurCredit) credit.tick();
    if (touch & kCurNack) nack.tick();
    if (touch & kCurProbe) probe.tick();
    if (touch & kCurActivation) activation.tick();
    cur_mask = next_mask;
    next_mask = 0;
    if (fwd_sig != nullptr) *fwd_sig = cur_mask;
    if (back_sig != nullptr) *back_sig = cur_mask;
  }
  /// Ticks the wire and reports whether anything is still in flight
  /// (a value now readable at the consumer). A wire returning false has
  /// fully settled and needs no further ticks until the next write — the
  /// event-driven Network keeps only live wires on its tick list.
  bool tick_live() {
    tick();
    return cur_mask != 0;
  }
  /// No value is readable and none is latched for the next edge.
  bool idle() const {
    return flit.idle() && credit.idle() && nack.idle() && probe.idle() &&
           activation.idle();
  }
};

/// Callback delivering an ejected flit to the local processing element.
using EjectFn = std::function<void(const Flit&, Cycle)>;

class RouterIface {
 public:
  virtual ~RouterIface() = default;

  RouterIface() = default;
  RouterIface(const RouterIface&) = delete;
  RouterIface& operator=(const RouterIface&) = delete;

  /// Wires port `p`: `in` carries the neighbour's (or PE's) signals toward
  /// this router, `out` carries this router's signals away. Either may be
  /// nullptr for a nonexistent link (mesh edge).
  virtual void connect(PortId p, Wire* in, Wire* out) = 0;
  virtual void set_eject_fn(EjectFn fn) = 0;
  /// Marks a link port as hard-failed (pre-programmed into the VA's
  /// link-state table, §4.2). The VA never allocates toward a dead port.
  virtual void fail_link(PortId p) = 0;
  /// Advances the router one clock cycle.
  virtual void step(Cycle now) = 0;

  virtual NodeId id() const = 0;

  // --- Introspection (stats sampling, tests, fuzz) ------------------------
  virtual int tx_buffer_occupancy() const = 0;
  virtual int tx_buffer_slots() const = 0;
  virtual int rtx_buffer_occupancy() const = 0;
  virtual int rtx_buffer_slots() const = 0;
  virtual bool in_recovery() const = 0;
  /// Occupancy of one input VC buffer (tests, credit-conservation walk).
  virtual int input_buffer_size(PortId p, VcId v) const = 0;
  /// Flits buffered across all VCs of input port `p`. The per-link stall
  /// accounting reads one per idle link per measured cycle.
  virtual int input_port_occupancy(PortId p) const = 0;

  /// Order-insensitive-free (FNV-1a, fixed traversal order) hash of every
  /// piece of architectural state that determines future behaviour: VC
  /// states, buffered flits, credits, retransmission barrels, staged
  /// registers, arbiter rotations, deadlock-agent state. Derived caches
  /// (work masks, occupancy counters) are deliberately excluded — the fuzz
  /// harness compares an optimized router against the reference model,
  /// which has none.
  virtual std::uint64_t state_digest() const = 0;

  // --- Invariant monitor (optional; no-ops on the reference model) --------
  /// Attaches the monitor whose event hooks this router will feed.
  virtual void set_monitor(InvariantMonitor*) {}
  /// Runs the router-local structural checks (work-mask agreement,
  /// occupancy counters, staged register) against `mon`.
  virtual void check_local_invariants(Cycle) {}
  /// Live flit instances held inside this router for the network-wide
  /// conservation ledger: input buffers + staged ST registers (minus
  /// replay shadows) + retransmission-barrel pending regions.
  virtual long long live_flit_count() const { return 0; }
  /// Sender-side credit instances for directed link (`p`, `v`): the free
  /// credit counter plus credits bound to staged or rolled-back flits.
  virtual int held_credits(PortId, VcId) const { return 0; }

  // --- Permanent link faults (DESIGN.md §4.9) -----------------------------
  /// True once port `p` has been marked hard-failed (static config or a
  /// completed storm-kill drain). The invariant monitor's dead-link walk
  /// keys off this rather than the topology so a draining link is not a
  /// false positive.
  virtual bool link_failed(PortId) const { return false; }
  /// Begins draining link port `p`: no new allocations toward it; once the
  /// port falls idle the router marks it hard-failed. Re-homes packets
  /// still waiting on it (they re-route, counted as packets_rerouted).
  virtual void begin_link_drain(PortId, Cycle) {}
};

}  // namespace ftnoc
