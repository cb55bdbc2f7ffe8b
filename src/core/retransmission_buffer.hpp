#pragma once
// The paper's transmission/retransmission buffer (Figure 3): a barrel-shift
// register of depth R (default 3) attached to each output VC.
//
// Normal operation: every flit copied onto the link is also pushed into the
// "sent" region; when the buffer is full the oldest sent flit falls off the
// end and retires — by then any NACK for it has already been processed,
// since the NACK loop is link(1) + check(1) + NACK(1) = 3 cycles and NACKs
// are processed before transmissions within a cycle. Idle periods retire
// sent flits by age instead (retire_expired), so a later NACK can never
// roll back flits whose NACK window has passed.
//
// On a NACK the whole sent region — the errored flit plus the (up to R-1)
// flits the receiver dropped behind it — rolls back into the "pending"
// region and is replayed in order, oldest first (Figure 4). Replayed flits
// still own their downstream buffer slot (the credit was consumed at first
// transmission), which `credit_held` records.
//
// Deadlock recovery (paper §3.2) reuses the same storage: a blocked router
// absorbs flits from its transmission buffer into the pending region
// ("direct input" in Figure 3) with credit_held = false — they compete for
// a downstream credit when they are finally transmitted.
//
// Storage is one depth-slot ring laid out as [sent | pending] from the
// head. Transmitting the front pending flit (a replay or an absorbed
// flit) just moves the boundary; retirement advances the head; a NACK
// moves the boundary back to the head. Only absorb_as_owner, pop_pending
// and a fresh send behind a waiter's pending flits shift entries, and
// never more than depth-1 of them. Over a router's barrel slab the slots
// are raw until a flit is recorded or absorbed into them.

#include <cstddef>
#include <memory>
#include <type_traits>

#include "common/types.hpp"
#include "core/flit.hpp"

namespace ftnoc {

class RetransmissionBuffer {
 public:
  /// Default NACK window: link (1) + error check (1) + NACK
  /// propagation (1). A router with a dedicated switch-traversal stage
  /// (4-stage pipeline) adds one more in-flight cycle.
  static constexpr Cycle kDefaultNackWindow = 3;

  /// One ring slot. `sent_at` is meaningful in the sent region,
  /// `credit_held` in the pending region.
  struct Slot {
    Flit flit;
    Cycle sent_at = 0;
    bool credit_held = false;
  };

  /// A barrel owning its own `depth` slots.
  /// @param nack_window  cycles a flit can still be NACKed after its
  ///                     transmission was recorded.
  explicit RetransmissionBuffer(int depth,
                                Cycle nack_window = kDefaultNackWindow);
  /// A barrel over `depth` caller-owned slots (a router's barrel slab),
  /// which must outlive it.
  RetransmissionBuffer(Slot* slots, int depth,
                       Cycle nack_window = kDefaultNackWindow);

  int depth() const { return depth_; }
  int occupancy() const { return sent_ + pending_; }
  int free_slots() const { return depth_ - occupancy(); }

  bool has_pending() const { return pending_ > 0; }
  int pending_count() const { return pending_; }
  int sent_count() const { return sent_; }

  /// Records that `f` was just transmitted on the link at cycle `now`.
  /// If `f` is the front pending flit this is a replay (or the transmission
  /// of an absorbed flit) and it moves from pending to sent. When the
  /// buffer is full the oldest sent flit retires (barrel-shifter semantics).
  void record_transmission(const Flit& f, Cycle now);

  /// Retires sent flits whose NACK window has passed (now - sent_at >
  /// nack_window). Call once per cycle, before processing incoming NACKs.
  void retire_expired(Cycle now);

  /// First cycle at which retire_expired(now) would retire something, or
  /// 0 when the sent region is empty. sent_at is monotone within the sent
  /// region, so callers may skip retire_expired entirely before this cycle.
  Cycle next_retire_at() const {
    return sent_ == 0 ? 0 : at(0).sent_at + nack_window_ + 1;
  }

  /// True if a transmission can be recorded at `now`: either a slot is
  /// free, or the oldest sent flit's NACK window has closed so the barrel
  /// shift retires it in the same cycle (back-to-back streaming never
  /// stalls on a depth-3 buffer).
  bool can_accept(Cycle now) const {
    if (free_slots() > 0) return true;
    return sent_ > 0 && now - at(0).sent_at >= nack_window_;
  }

  /// A NACK arrived: every sent-but-unretired flit must be replayed.
  /// Rolls the sent region into the front of the pending region, preserving
  /// transmission order; all rolled-back entries keep their credit.
  /// Returns the number of flits scheduled for replay.
  int on_nack();

  /// Next flit to (re)transmit.
  const Flit& front_pending() const;
  /// Whether the front pending flit already owns a downstream buffer slot.
  bool front_pending_credit_held() const;

  /// Pops the front pending flit without transmitting it (used when an
  /// absorbed flit is consumed locally, e.g. ejected at its destination).
  Flit pop_pending();

  /// Deadlock recovery: absorb a flit from the transmission buffer into the
  /// pending region (paper Figure 10, step 2). Requires a free slot.
  void absorb(const Flit& f);

  /// Absorbs a flit of the output VC's *current owner*, inserting it after
  /// the owner's existing pending flits but before any queued waiter's
  /// (the owner's wormhole completes first on the wire). Requires a free
  /// slot.
  void absorb_as_owner(const Flit& f, PacketId owner_pid);

  /// Appends a flit to the back of the pending region with its credit
  /// already held — used when a NACK squashes the 4-stage router's staged
  /// switch-traversal register (the flit consumed its credit at allocation
  /// and must still be transmitted, after the rolled-back sent flits).
  void push_pending_back(const Flit& f);

  /// True if any held flit (sent or pending) belongs to `pid` — used to
  /// keep an output VC reserved until a packet's tail can no longer be
  /// replayed.
  bool contains_packet(PacketId pid) const;

  /// True if any *pending* flit belongs to `pid`. New transmissions of a
  /// packet must wait while that packet still has pending (older) flits;
  /// pending flits of a *different* packet (a deadlock-recovery waiter
  /// queued behind the current owner) do not block the owner.
  bool has_pending_for(PacketId pid) const;

  /// True if some pending entry is exactly this flit (packet + sequence).
  /// Distinguishes a staged replay — whose pending entry has not been
  /// consumed yet — from a staged fresh transmission, even when a NACK
  /// rollback has just queued older flits ahead of it.
  bool pending_contains(PacketId pid, std::uint8_t seq) const;

  void clear();

  // --- Entry introspection (invariant monitor, state digests) -------------
  const Flit& sent_flit(int i) const { return at(i).flit; }
  Cycle sent_time(int i) const { return at(i).sent_at; }
  const Flit& pending_flit(int i) const { return at(sent_ + i).flit; }
  bool pending_credit_held(int i) const { return at(sent_ + i).credit_held; }

 private:
  /// Slot at ring position `i` counted from the head (the oldest entry).
  Slot& at(int i) {
    const int j = head_ + i;
    return slots_[j < depth_ ? j : j - depth_];
  }
  const Slot& at(int i) const {
    const int j = head_ + i;
    return slots_[j < depth_ ? j : j - depth_];
  }
  /// Writes a slot holding `f` at ring position `i`, shifting positions
  /// [i, occupancy) one toward the tail first (none when `i` is the
  /// tail). Requires a free slot; `f` must not live in this barrel.
  void insert_at(int i, const Flit& f, Cycle sent_at, bool credit_held);
  /// Removes ring position `i`, shifting the later positions one toward
  /// the head.
  void erase_at(int i);

  std::unique_ptr<Slot[]> owned_;  ///< Null when viewing a router slab.
  Slot* slots_;
  Cycle nack_window_;
  int depth_;
  int head_ = 0;
  int sent_ = 0;     ///< Ring positions [0, sent_) — oldest first.
  int pending_ = 0;  ///< Positions [sent_, sent_ + pending_) — next first.
};
static_assert(std::is_trivially_copyable_v<RetransmissionBuffer::Slot> &&
              std::is_trivially_destructible_v<RetransmissionBuffer::Slot>);

}  // namespace ftnoc
