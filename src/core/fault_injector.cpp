#include "core/fault_injector.hpp"

namespace ftnoc {

FaultInjector::FaultInjector(const FaultConfig& cfg, Rng rng)
    : cfg_(cfg), rng_(rng) {}

LinkFault FaultInjector::maybe_corrupt_link(Flit& f) {
  if (!rng_.bernoulli(cfg_.link_error_rate)) return LinkFault::kNone;
  if (rng_.bernoulli(cfg_.multi_bit_fraction)) {
    // Two distinct bit flips — crosstalk-style coupled upset.
    const int b1 = static_cast<int>(rng_.next_below(ecc::kCodewordBits));
    int b2 = static_cast<int>(rng_.next_below(ecc::kCodewordBits - 1));
    if (b2 >= b1) ++b2;
    f.flip_code_bit(b1);
    f.flip_code_bit(b2);
    ++link_multi_;
    return LinkFault::kMultiBit;
  }
  f.flip_code_bit(static_cast<int>(rng_.next_below(ecc::kCodewordBits)));
  ++link_single_;
  return LinkFault::kSingleBit;
}

bool FaultInjector::upset_routing() {
  if (!rng_.bernoulli(cfg_.rt_error_rate)) return false;
  ++rt_;
  return true;
}

bool FaultInjector::upset_va_allocation() {
  if (!rng_.bernoulli(cfg_.va_error_rate)) return false;
  ++va_;
  return true;
}

bool FaultInjector::upset_sa_grant() {
  if (!rng_.bernoulli(cfg_.sa_error_rate)) return false;
  ++sa_;
  return true;
}

bool FaultInjector::upset_rtx_copy() {
  if (!rng_.bernoulli(cfg_.rtx_error_rate)) return false;
  ++rtx_;
  return true;
}

bool FaultInjector::upset_handshake() {
  if (!rng_.bernoulli(cfg_.handshake_error_rate)) return false;
  ++handshake_;
  return true;
}

std::uint64_t FaultInjector::random_below(std::uint64_t bound) {
  return rng_.next_below(bound);
}

}  // namespace ftnoc
