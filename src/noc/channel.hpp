#pragma once
// One-cycle pipeline registers modelling wires between routers.
//
// A value written during cycle t becomes readable during cycle t+1 (after
// Network::tick_channels()). Routers communicate *only* through channels,
// which makes the sequential router update order within a cycle
// unobservable — the simulation behaves as if all routers stepped in
// lockstep.
//
// Each channel keeps two slots and a phase bit: slot `phase_` is this
// cycle's (readable) value, the other slot is next cycle's (written)
// value. A tick flips the phase and drops whatever the old current slot
// held, so no value is moved or copied at the clock edge. Slots are raw
// until written (RawSlots): building a channel writes no slot.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/check.hpp"
#include "common/raw_slots.hpp"

namespace ftnoc {

template <typename T>
class Channel {
 public:
  /// Writes the value to appear on the wire next cycle. At most one write
  /// per cycle (the wire has no buffering).
  void write(const T& v) { write_slot(v); }

  /// write() that returns the written slot, so the producer can finish
  /// the value in place instead of staging a copy. The reference is valid
  /// until the tick after next.
  T& write_slot(const T& v) {
    FTNOC_CHECK(can_write());
    full_ |= bit(next());
    return slot_.put(next(), v);
  }

  bool can_write() const { return (full_ & bit(next())) == 0; }

  /// Reads and consumes this cycle's value, if any. The value stays in
  /// its slot until the next tick(), so the consumer may use it — and
  /// alter it in place, e.g. link-fault injection — without a copy.
  T* read() {
    if ((full_ & bit(phase_)) == 0) return nullptr;
    full_ &= static_cast<std::uint8_t>(~bit(phase_));
    return &slot_[phase_];
  }

  /// This cycle's value, or nullptr.
  const T* peek() const {
    return (full_ & bit(phase_)) ? &slot_[phase_] : nullptr;
  }

  /// Advances the register: next-cycle value becomes current.
  /// An unconsumed current value is dropped — wires don't hold state.
  void tick() {
    full_ &= static_cast<std::uint8_t>(~bit(phase_));
    phase_ = next();
  }

  /// Nothing readable now and nothing latched for the next edge; ticking
  /// an idle channel is a no-op, so it needs no tick until written again.
  bool idle() const { return full_ == 0; }

 private:
  std::uint8_t next() const {
    return static_cast<std::uint8_t>(phase_ ^ 1u);
  }
  static std::uint8_t bit(std::uint8_t slot) {
    return static_cast<std::uint8_t>(1u << slot);
  }

  RawSlots<T, 2> slot_;
  std::uint8_t phase_ = 0;
  std::uint8_t full_ = 0;  ///< Bit s: slot_[s] holds a value.
};

/// A channel that can carry several independent values per cycle (used for
/// credits: distinct VCs may each return a credit in the same cycle). Each
/// slot holds up to N values inline; a router frees at most V+1 slots of
/// one input port per cycle (one switch traversal, plus one drop or one
/// deadlock absorption per VC), well under the default N for V <= 6.
template <typename T, std::size_t N = 16>
class MultiChannel {
 public:
  void write(const T& v) {
    Slot& s = slot_[phase_ ^ 1u];
    FTNOC_CHECK(s.n < N);
    s.v.put(s.n++, v);
  }

  bool empty() const { return slot_[phase_].n == 0; }

  /// Reads and consumes all of this cycle's values. The returned view is
  /// valid until the next tick().
  std::span<const T> read() {
    Slot& s = slot_[phase_];
    const std::span<const T> v(s.v.data(), s.n);
    s.n = 0;
    return v;
  }

  /// Non-consuming view of this cycle's values (invariant walks, digests).
  std::span<const T> peek() const {
    const Slot& s = slot_[phase_];
    return {s.v.data(), s.n};
  }

  void tick() {
    slot_[phase_].n = 0;
    phase_ ^= 1u;
  }

  /// See Channel::idle().
  bool idle() const { return slot_[0].n == 0 && slot_[1].n == 0; }

 private:
  struct Slot {
    RawSlots<T, N> v;
    std::uint8_t n = 0;
  };
  std::array<Slot, 2> slot_;
  std::uint8_t phase_ = 0;
};

}  // namespace ftnoc
