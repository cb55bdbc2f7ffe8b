#pragma once
// Round-robin arbiter — the building block of the separable VA and SA
// allocators. Grants rotate so the last winner becomes the lowest priority,
// giving strong local fairness (no starvation among persistent requesters).

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace ftnoc {

class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(int num_requesters);

  /// Picks one set bit of `requests` (bit i = requester i), favouring the
  /// requester after the previous winner. Returns -1 if no requests.
  /// Updates the rotation state on a grant.
  int arbitrate(std::uint32_t requests) {
    const int g = pick(requests);
    if (g >= 0) last_grant_ = g;
    return g;
  }

  /// As `arbitrate` but leaves rotation state untouched (used for
  /// "what-if" queries by the deadlock probing logic).
  int peek(std::uint32_t requests) const { return pick(requests); }

  int size() const { return n_; }

  /// Rotation state (state digests): index of the previous winner.
  int last_grant() const { return last_grant_; }

 private:
  /// Bit-scan equivalent of the classic wrap scan from last_grant_+1:
  /// grant the lowest requester at or above last_grant_+1, else wrap to
  /// the lowest requester overall. Bits >= n_ are ignored, exactly as the
  /// index loop ignored them.
  int pick(std::uint32_t requests) const {
    requests &= mask_;
    if (requests == 0) return -1;
    const int s = last_grant_ + 1;
    const std::uint32_t hi =
        s >= 32 ? 0u : requests & (~0u << s);
    return std::countr_zero(hi != 0 ? hi : requests);
  }

  int n_;
  std::uint32_t mask_;
  int last_grant_ = -1;
};

/// A bank of independent round-robin arbiters (one per output resource).
/// The optimized Router keeps its banks as spans of its storage block.
class ArbiterBank {
 public:
  ArbiterBank(int num_arbiters, int num_requesters);

  RoundRobinArbiter& at(int i) { return arbiters_.at(i); }
  const RoundRobinArbiter& at(int i) const { return arbiters_.at(i); }
  int size() const { return static_cast<int>(arbiters_.size()); }

 private:
  std::vector<RoundRobinArbiter> arbiters_;
};

}  // namespace ftnoc
