// Unit + property tests for the Hamming SEC/DED (72,64) codec — the
// error-correcting blanket every link-protection scheme relies on.

#include "ecc/hamming.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace ftnoc::ecc {
namespace {

TEST(Hamming, RoundTripSampleValues) {
  for (std::uint64_t data :
       {0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL, 0xDEADBEEFCAFEF00DULL,
        0x8000000000000000ULL, 0x5555555555555555ULL}) {
    const Codeword cw = encode(data);
    const DecodeResult r = decode(cw);
    EXPECT_EQ(r.status, DecodeStatus::kClean);
    EXPECT_EQ(r.data, data);
    EXPECT_EQ(extract_data(cw), data);
  }
}

TEST(Hamming, CleanCodewordHasEvenParityAndZeroSyndrome) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t data = rng.next_u64();
    EXPECT_EQ(decode(encode(data)).status, DecodeStatus::kClean);
  }
}

// Property: every single-bit flip, at every position, is corrected.
TEST(Hamming, CorrectsEverySingleBitFlip) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t data = rng.next_u64();
    for (int pos = 0; pos < kCodewordBits; ++pos) {
      Codeword cw = encode(data);
      cw.flip(pos);
      const DecodeResult r = decode(cw);
      EXPECT_EQ(r.status, DecodeStatus::kCorrected) << "pos=" << pos;
      EXPECT_EQ(r.data, data) << "pos=" << pos;
    }
  }
}

// Property: every distinct double-bit flip is *detected* (never silently
// accepted, never miscorrected into a "clean" verdict).
TEST(Hamming, DetectsEveryDoubleBitFlip) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint64_t data = rng.next_u64();
    const Codeword clean = encode(data);
    for (int a = 0; a < kCodewordBits; ++a) {
      for (int b = a + 1; b < kCodewordBits; ++b) {
        Codeword cw = clean;
        cw.flip(a);
        cw.flip(b);
        const DecodeResult r = decode(cw);
        EXPECT_EQ(r.status, DecodeStatus::kUncorrectable)
            << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Hamming, ParityBitFlipAloneIsCorrected) {
  const std::uint64_t data = 0xA5A5A5A5A5A5A5A5ULL;
  Codeword cw = encode(data);
  cw.flip(0);  // Position 0 is the overall DED parity bit.
  const DecodeResult r = decode(cw);
  EXPECT_EQ(r.status, DecodeStatus::kCorrected);
  EXPECT_EQ(r.data, data);
}

TEST(Hamming, CodewordBitAccessors) {
  Codeword cw;
  EXPECT_FALSE(cw.bit(0));
  EXPECT_FALSE(cw.bit(71));
  cw.flip(71);
  EXPECT_TRUE(cw.bit(71));
  cw.flip(71);
  EXPECT_FALSE(cw.bit(71));
  cw.flip(63);
  EXPECT_TRUE(cw.bit(63));
}

// Bit-by-bit (72,64) reference, straight from the layout definition: data
// bit i goes to the i-th position in 1..71 that is not a power of two;
// the check bit at 2^g makes group g (positions with bit g set) even;
// position 0 makes the whole word even.
bool is_check_position(int pos) { return (pos & (pos - 1)) == 0; }

Codeword reference_encode(std::uint64_t data) {
  Codeword cw;
  int i = 0;
  for (int pos = 1; pos < kCodewordBits; ++pos) {
    if (is_check_position(pos)) continue;
    if ((data >> i++) & 1) cw.flip(pos);
  }
  for (int g = 0; g < kCheckBits; ++g) {
    bool odd = false;
    for (int pos = 1; pos < kCodewordBits; ++pos) {
      if ((pos >> g) & 1) odd ^= cw.bit(pos);
    }
    if (odd) cw.flip(1 << g);
  }
  bool odd = false;
  for (int pos = 0; pos < kCodewordBits; ++pos) odd ^= cw.bit(pos);
  if (odd) cw.flip(0);
  return cw;
}

std::uint64_t reference_extract(const Codeword& cw) {
  std::uint64_t data = 0;
  int i = 0;
  for (int pos = 1; pos < kCodewordBits; ++pos) {
    if (is_check_position(pos)) continue;
    if (cw.bit(pos)) data |= 1ULL << i;
    ++i;
  }
  return data;
}

DecodeResult reference_decode(const Codeword& cw) {
  int syndrome = 0;
  for (int g = 0; g < kCheckBits; ++g) {
    bool odd = false;
    for (int pos = 1; pos < kCodewordBits; ++pos) {
      if ((pos >> g) & 1) odd ^= cw.bit(pos);
    }
    if (odd) syndrome |= 1 << g;
  }
  bool odd = false;
  for (int pos = 0; pos < kCodewordBits; ++pos) odd ^= cw.bit(pos);
  if (!odd) {
    if (syndrome == 0) return {DecodeStatus::kClean, reference_extract(cw)};
    return {DecodeStatus::kUncorrectable, 0};
  }
  if (syndrome >= kCodewordBits) return {DecodeStatus::kUncorrectable, 0};
  Codeword fixed = cw;
  fixed.flip(syndrome);  // Syndrome 0: the parity bit itself.
  return {DecodeStatus::kCorrected, reference_extract(fixed)};
}

// Differential: the table codec against the bit-by-bit reference on random
// words with 0-4 distinct random flips. Same codeword, same verdict, same
// data — including how >= 3-flip words miscorrect, which FEC's silent-
// corruption accounting depends on.
TEST(Hamming, MatchesBitByBitReferenceUnderRandomFlips) {
  Rng rng(5);
  int verdicts[3] = {0, 0, 0};
  for (int trial = 0; trial < 20000; ++trial) {
    const std::uint64_t data = rng.next_u64();
    const Codeword clean = encode(data);
    ASSERT_EQ(clean, reference_encode(data)) << "data=" << data;
    ASSERT_EQ(extract_data(clean), reference_extract(clean));
    Codeword cw = clean;
    const int flips = static_cast<int>(rng.next_below(5));
    std::uint64_t lo_seen = 0;
    std::uint8_t hi_seen = 0;
    for (int f = 0; f < flips;) {
      const int pos = static_cast<int>(rng.next_below(kCodewordBits));
      Codeword bit;
      bit.flip(pos);
      if ((lo_seen & bit.lo) != 0 || (hi_seen & bit.hi) != 0) continue;
      lo_seen |= bit.lo;
      hi_seen = static_cast<std::uint8_t>(hi_seen | bit.hi);
      cw.flip(pos);
      ++f;
    }
    const DecodeResult got = decode(cw);
    const DecodeResult want = reference_decode(cw);
    ASSERT_EQ(got.status, want.status) << "data=" << data << " flips=" << flips;
    ASSERT_EQ(got.data, want.data) << "data=" << data << " flips=" << flips;
    ++verdicts[static_cast<int>(got.status)];
  }
  // Every verdict occurred, so each decode branch was compared.
  EXPECT_GT(verdicts[static_cast<int>(DecodeStatus::kClean)], 0);
  EXPECT_GT(verdicts[static_cast<int>(DecodeStatus::kCorrected)], 0);
  EXPECT_GT(verdicts[static_cast<int>(DecodeStatus::kUncorrectable)], 0);
}

TEST(Hamming, DistinctDataGivesDistinctCodewords) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = a ^ (1ULL << (i % 64));
    EXPECT_FALSE(encode(a) == encode(b));
  }
}

}  // namespace
}  // namespace ftnoc::ecc
