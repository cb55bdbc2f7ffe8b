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

// Field order is a layout decision: the 8-byte members first, then the
// node ids, then the byte-wide fields, so the struct packs into exactly one
// 64-byte cache line with no interior padding. The state digests mix the
// fields by name (digest::Fnv::mix_flit), so reordering moves no digest
// byte.
struct Flit {
  PacketId packet_id = 0;

  /// Cycle the packet was created at the source PE (total-latency
  /// reference point, including source queueing).
  Cycle birth_cycle = 0;

  /// Cycle the packet's header first entered the network (the PE put its
  /// first flit on the local channel). Message latency — the paper's
  /// headline metric — is tail-ejection minus this. Zero until injection;
  /// E2E retransmissions keep the first attempt's stamp so the full
  /// recovery time is charged.
  Cycle inject_cycle = 0;

  /// Transient per-hop bookkeeping: cycle this flit was written into the
  /// current router's input buffer. Pipeline stages only operate on flits
  /// that arrived in an earlier cycle.
  Cycle arrived_cycle = 0;

  /// Ground-truth payload — what the source encoded. Used as the oracle
  /// when accounting silent corruptions (FEC-only scheme).
  std::uint64_t payload = 0;

  /// The SEC/DED codeword actually travelling on the wires. Link faults
  /// flip bits here; receivers decode it.
  ecc::Codeword codeword;

  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;

  FlitType type = FlitType::kHead;
  std::uint8_t seq = 0;  ///< Index of this flit within its packet.

  /// VC the flit occupies on the link it is currently traversing
  /// (stamped by the sender at switch traversal).
  VcId vc = kInvalidVc;

  /// Transient: hops traversed so far (statistics).
  std::uint8_t hops = 0;

  std::string describe() const;
};
static_assert(sizeof(Flit) == 64, "Flit must stay one 64-byte cache line");
// Buffer slots hold flits in raw storage that is written, never
// constructed or destroyed, in place (DESIGN.md §4.11).
static_assert(std::is_trivially_copyable_v<Flit> &&
              std::is_trivially_destructible_v<Flit>);

/// Builds a flit with its codeword freshly encoded from `payload`.
Flit make_flit(FlitType type, PacketId pid, NodeId src, NodeId dest,
               std::uint8_t seq, Cycle birth, std::uint64_t payload);

}  // namespace ftnoc
