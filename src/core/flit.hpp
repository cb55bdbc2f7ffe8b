#pragma once
// Flit — the unit of flow control and of fault tolerance. Every mechanism
// in the paper (ECC blanket, HBH retransmission, deadlock recovery probes)
// operates at flit granularity.

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/types.hpp"
#include "ecc/hamming.hpp"

namespace ftnoc {

enum class FlitType : std::uint8_t {
  kHead = 0,
  kBody = 1,
  kTail = 2,
  kHeadTail = 3,  ///< Single-flit packet.
};

inline bool is_head(FlitType t) {
  return t == FlitType::kHead || t == FlitType::kHeadTail;
}
inline bool is_tail(FlitType t) {
  return t == FlitType::kTail || t == FlitType::kHeadTail;
}

/// The type of flit `seq` of a `length`-flit packet.
inline FlitType flit_type(std::uint32_t seq, std::uint32_t length) {
  if (length == 1) return FlitType::kHeadTail;
  if (seq == 0) return FlitType::kHead;
  return seq + 1 == length ? FlitType::kTail : FlitType::kBody;
}

/// The arrival stamp of cycle `c`: its low 32 bits. A flit records the
/// stamp of the cycle it entered its current input buffer, and the
/// pipeline only moves a flit whose stamp differs from the current
/// cycle's. Equality, unlike `<`, holds across the 2^32 wrap; it would
/// misjudge only a flit that sat in one buffer for exactly k * 2^32
/// cycles.
inline std::uint32_t arrival_stamp(Cycle c) {
  return static_cast<std::uint32_t>(c);
}

// Field order is a layout decision: the 8-byte members first, then the
// arrival stamp and the node ids, then the byte-wide fields, so the struct
// packs into 32 bytes — two flits per 64-byte cache line. The codeword is
// held as its two parts because ecc::Codeword pads to 16 bytes. Per-packet
// facts that only the source and the ejection port read (birth and
// injection cycles, the ground-truth payloads) live once per packet in the
// network's PacketTable (DESIGN.md §4.11), not in every copy of every
// flit. The state digests mix the fields by name (digest::Fnv::mix_flit),
// so reordering moves no digest byte.
struct Flit {
  PacketId packet_id = 0;

  /// Bits 0..63 of the SEC/DED codeword actually travelling on the wires.
  /// Link faults flip bits here; receivers decode it.
  std::uint64_t code_lo = 0;

  /// Transient per-hop bookkeeping: arrival_stamp() of the cycle this flit
  /// was written into the current router's input buffer.
  std::uint32_t arrived_stamp = 0;

  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;

  /// Bits 64..71 of the codeword.
  std::uint8_t code_hi = 0;

  FlitType type = FlitType::kHead;
  std::uint8_t seq = 0;  ///< Index of this flit within its packet.

  /// VC the flit occupies on the link it is currently traversing
  /// (stamped by the sender at switch traversal).
  VcId vc = kInvalidVc;

  /// Transient: hops traversed so far (statistics).
  std::uint8_t hops = 0;

  ecc::Codeword codeword() const { return {code_lo, code_hi}; }
  void set_codeword(const ecc::Codeword& cw) {
    code_lo = cw.lo;
    code_hi = cw.hi;
  }
  /// Flips codeword bit `pos` (0..71), as ecc::Codeword::flip does.
  void flip_code_bit(int pos) {
    ecc::Codeword cw = codeword();
    cw.flip(pos);
    set_codeword(cw);
  }

  std::string describe() const;
};
static_assert(sizeof(Flit) == 32, "Flit must stay half a 64-byte cache line");
// Buffer slots hold flits in raw storage that is written, never
// constructed or destroyed, in place (DESIGN.md §4.11).
static_assert(std::is_trivially_copyable_v<Flit> &&
              std::is_trivially_destructible_v<Flit>);

/// True while `f` sits in the buffer it entered this cycle: the pipeline
/// leaves it for a later cycle.
inline bool arrived_this_cycle(const Flit& f, Cycle now) {
  return f.arrived_stamp == arrival_stamp(now);
}

/// Builds a flit with its codeword freshly encoded from `payload`.
Flit make_flit(FlitType type, PacketId pid, NodeId src, NodeId dest,
               std::uint8_t seq, std::uint64_t payload);

}  // namespace ftnoc
