#pragma once
// FNV-1a state-digest mixer shared by Router::state_digest() and
// ReferenceRouter::state_digest(). Both implementations traverse their
// architectural state in the same fixed order and feed it through these
// leaf encoders, so equal state always hashes equal — the property the
// differential fuzz harness's lock-step comparison rests on.

#include <cstdint>

#include "core/deadlock.hpp"
#include "core/flit.hpp"

namespace ftnoc::digest {

class Fnv {
 public:
  std::uint64_t value() const { return h_; }

  /// FNV-1a over the 8 bytes of `v`, low byte first. Unrolled into a local
  /// by hand: the fuzz harness digests both networks every cycle, and in
  /// an unoptimized sanitizer build the byte loop over the member was
  /// most of a self-test's run time.
  void mix(std::uint64_t v) {
    std::uint64_t h = h_;
    h = (h ^ (v & 0xffu)) * kPrime;
    h = (h ^ ((v >> 8) & 0xffu)) * kPrime;
    h = (h ^ ((v >> 16) & 0xffu)) * kPrime;
    h = (h ^ ((v >> 24) & 0xffu)) * kPrime;
    h = (h ^ ((v >> 32) & 0xffu)) * kPrime;
    h = (h ^ ((v >> 40) & 0xffu)) * kPrime;
    h = (h ^ ((v >> 48) & 0xffu)) * kPrime;
    h_ = (h ^ (v >> 56)) * kPrime;
  }

  /// Four words per flit: the two 8-byte fields, then the narrow fields
  /// packed into disjoint bit ranges of two more words, so a change to
  /// any field byte changes the mixed bytes.
  void mix_flit(const Flit& f) {
    mix(f.packet_id);
    mix(f.code_lo);
    mix(static_cast<std::uint64_t>(f.src) |
        static_cast<std::uint64_t>(f.dest) << 16 |
        static_cast<std::uint64_t>(f.arrived_stamp) << 32);
    mix(static_cast<std::uint64_t>(f.code_hi) |
        static_cast<std::uint64_t>(f.type) << 8 |
        static_cast<std::uint64_t>(f.seq) << 16 |
        static_cast<std::uint64_t>(f.vc) << 24 |
        static_cast<std::uint64_t>(f.hops) << 32);
  }

  void mix_probe(const ProbeSignal& p) {
    mix(static_cast<std::uint64_t>(p.origin));
    mix(p.probe_id);
    mix(static_cast<std::uint64_t>(p.in_port));
    mix(static_cast<std::uint64_t>(p.in_vc));
    mix(p.hops);
  }

  void mix_activation(const ActivationSignal& a) {
    mix(static_cast<std::uint64_t>(a.origin));
    mix(a.probe_id);
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace ftnoc::digest
