#include "ecc/hamming.hpp"

#include <array>

namespace ftnoc::ecc {
namespace {

// Per-byte syndrome table. The 72 codeword positions split into nine bytes
// (lo holds bytes 0..7, hi is byte 8). kSyndrome[b][v] is the XOR of the
// positions of v's set bits when v sits in byte b, in bits 0..6, plus v's
// parity in bit 7. Hamming check group g covers exactly the positions with
// bit g set, so bit g of the XOR over a codeword's nine entries is group
// g's parity, and bit 7 is the parity of the whole word: nine lookups
// instead of a popcount per group (the default build has no POPCNT, so
// each std::popcount is a library call).
using SyndromeTable = std::array<std::array<std::uint8_t, 256>, 9>;

constexpr SyndromeTable build_syndrome_table() {
  SyndromeTable t{};
  for (int b = 0; b < 9; ++b) {
    for (int v = 0; v < 256; ++v) {
      int e = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((v >> bit) & 1) e ^= (8 * b + bit) | 0x80;
      }
      t[b][v] = static_cast<std::uint8_t>(e);
    }
  }
  return t;
}

constexpr SyndromeTable kSyndrome = build_syndrome_table();

// Bits 0..6: the Hamming syndrome; bit 7: the overall parity.
std::uint8_t syndrome_and_parity(const Codeword& cw) {
  std::uint8_t s = kSyndrome[8][cw.hi];
  for (int b = 0; b < 8; ++b) {
    s = static_cast<std::uint8_t>(s ^ kSyndrome[b][(cw.lo >> (8 * b)) & 0xFF]);
  }
  return s;
}

// The data positions (everything except 0 and the powers of two) form six
// contiguous runs: 3, 5-7, 9-15, 17-31, 33-63 and 65-71. Scattering and
// gathering are therefore six shift-and-mask segments instead of a 64-step
// bit loop; the unit tests pin them against a bit-by-bit reference codec.

}  // namespace

Codeword encode(std::uint64_t data) {
  Codeword cw;
  // Scatter data bits into their codeword positions.
  cw.lo = ((data & 0x1ULL) << 3) | (((data >> 1) & 0x7ULL) << 5) |
          (((data >> 4) & 0x7FULL) << 9) |
          (((data >> 11) & 0x7FFFULL) << 17) |
          (((data >> 26) & 0x7FFFFFFFULL) << 33);
  cw.hi = static_cast<std::uint8_t>(((data >> 57) & 0x7FULL) << 1);
  // With every check position still zero, syndrome bit g is group g's
  // parity; setting the check bit at position 2^g, which sits in group g
  // alone, makes that group even.
  const std::uint8_t s = syndrome_and_parity(cw);
  const unsigned checks = s & 0x7Fu;
  for (int g = 0; g < 6; ++g) {
    cw.lo |= static_cast<std::uint64_t>((checks >> g) & 1u) << (1 << g);
  }
  cw.hi = static_cast<std::uint8_t>(cw.hi | (checks >> 6));
  // Overall parity bit (position 0) makes the full codeword even-parity:
  // the data's parity (bit 7) plus that of the check bits just set
  // (0x6996 is the parity of each 4-bit value).
  const unsigned check_parity =
      (0x6996u >> ((checks ^ (checks >> 4)) & 0xFu)) & 1u;
  cw.lo |= ((s >> 7) ^ check_parity) & 1u;
  return cw;
}

std::uint64_t extract_data(const Codeword& cw) {
  return ((cw.lo >> 3) & 0x1ULL) | (((cw.lo >> 5) & 0x7ULL) << 1) |
         (((cw.lo >> 9) & 0x7FULL) << 4) |
         (((cw.lo >> 17) & 0x7FFFULL) << 11) |
         (((cw.lo >> 33) & 0x7FFFFFFFULL) << 26) |
         ((static_cast<std::uint64_t>(cw.hi >> 1) & 0x7FULL) << 57);
}

DecodeResult decode(const Codeword& cw) {
  const std::uint8_t s = syndrome_and_parity(cw);
  const int syndrome = s & 0x7F;
  const int parity = s >> 7;

  if (syndrome == 0 && parity == 0) {
    return {DecodeStatus::kClean, extract_data(cw)};
  }
  if (syndrome == 0 && parity == 1) {
    // The overall parity bit itself flipped; data is intact.
    return {DecodeStatus::kCorrected, extract_data(cw)};
  }
  if (parity == 1) {
    // Odd number of flips with a non-zero syndrome: a single-bit error at
    // position `syndrome` — unless the syndrome points outside the
    // codeword, which can only result from >= 3 flips.
    if (syndrome >= kCodewordBits) {
      return {DecodeStatus::kUncorrectable, 0};
    }
    Codeword fixed = cw;
    fixed.flip(syndrome);
    return {DecodeStatus::kCorrected, extract_data(fixed)};
  }
  // Non-zero syndrome with even parity: double-bit error. Detected, not
  // correctable.
  return {DecodeStatus::kUncorrectable, 0};
}

}  // namespace ftnoc::ecc
