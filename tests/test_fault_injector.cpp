// Unit tests for the Bernoulli fault processes and the error-check unit.

#include <gtest/gtest.h>

#include "core/error_check_unit.hpp"
#include "core/fault_injector.hpp"

namespace ftnoc {
namespace {

constexpr std::uint64_t kPayload = 0x1234567890ABCDEFULL;

Flit clean_flit() { return make_flit(FlitType::kBody, 1, 0, 1, 1, kPayload); }

TEST(FaultInjector, ZeroRatesInjectNothing) {
  FaultConfig cfg;  // All rates zero.
  FaultInjector inj(cfg, Rng(1));
  Flit f = clean_flit();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(inj.maybe_corrupt_link(f), LinkFault::kNone);
    EXPECT_FALSE(inj.upset_routing());
    EXPECT_FALSE(inj.upset_va_allocation());
    EXPECT_FALSE(inj.upset_sa_grant());
  }
  EXPECT_EQ(ecc::decode(f.codeword()).status, ecc::DecodeStatus::kClean);
}

TEST(FaultInjector, LinkFaultRateRoughlyCalibrated) {
  FaultConfig cfg;
  cfg.link_error_rate = 0.1;
  FaultInjector inj(cfg, Rng(2));
  int faults = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    Flit f = clean_flit();
    if (inj.maybe_corrupt_link(f) != LinkFault::kNone) ++faults;
  }
  EXPECT_NEAR(static_cast<double>(faults) / n, 0.1, 0.01);
}

TEST(FaultInjector, MultiBitFractionSplitsFaults) {
  FaultConfig cfg;
  cfg.link_error_rate = 1.0;
  cfg.multi_bit_fraction = 0.25;
  FaultInjector inj(cfg, Rng(3));
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    Flit f = clean_flit();
    inj.maybe_corrupt_link(f);
  }
  const double frac = static_cast<double>(inj.link_multi_injected()) /
                      (inj.link_single_injected() + inj.link_multi_injected());
  EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(FaultInjector, SingleBitFaultIsCorrectable) {
  FaultConfig cfg;
  cfg.link_error_rate = 1.0;
  cfg.multi_bit_fraction = 0.0;
  FaultInjector inj(cfg, Rng(4));
  for (int i = 0; i < 200; ++i) {
    Flit f = clean_flit();
    ASSERT_EQ(inj.maybe_corrupt_link(f), LinkFault::kSingleBit);
    const auto r = ecc::decode(f.codeword());
    EXPECT_EQ(r.status, ecc::DecodeStatus::kCorrected);
    EXPECT_EQ(r.data, kPayload);
  }
}

TEST(FaultInjector, MultiBitFaultIsDetectedNotCorrected) {
  FaultConfig cfg;
  cfg.link_error_rate = 1.0;
  cfg.multi_bit_fraction = 1.0;
  FaultInjector inj(cfg, Rng(5));
  for (int i = 0; i < 200; ++i) {
    Flit f = clean_flit();
    ASSERT_EQ(inj.maybe_corrupt_link(f), LinkFault::kMultiBit);
    EXPECT_EQ(ecc::decode(f.codeword()).status,
              ecc::DecodeStatus::kUncorrectable);
  }
}

TEST(FaultInjector, CountersTrackInjections) {
  FaultConfig cfg;
  cfg.rt_error_rate = 0.5;
  cfg.va_error_rate = 0.5;
  cfg.sa_error_rate = 0.5;
  FaultInjector inj(cfg, Rng(6));
  for (int i = 0; i < 1000; ++i) {
    inj.upset_routing();
    inj.upset_va_allocation();
    inj.upset_sa_grant();
  }
  EXPECT_NEAR(static_cast<double>(inj.rt_injected()), 500, 60);
  EXPECT_NEAR(static_cast<double>(inj.va_injected()), 500, 60);
  EXPECT_NEAR(static_cast<double>(inj.sa_injected()), 500, 60);
}

TEST(ErrorCheckUnit, ClassifiesAndCountsAllThreeOutcomes) {
  ErrorCheckUnit unit;
  Flit clean = clean_flit();
  EXPECT_EQ(unit.check(clean), FlitCheck::kClean);

  Flit single = clean_flit();
  single.flip_code_bit(13);
  EXPECT_EQ(unit.check(single), FlitCheck::kCorrected);
  // The unit repairs the codeword in place.
  EXPECT_EQ(ecc::decode(single.codeword()).status, ecc::DecodeStatus::kClean);

  Flit dbl = clean_flit();
  dbl.flip_code_bit(13);
  dbl.flip_code_bit(37);
  EXPECT_EQ(unit.check(dbl), FlitCheck::kUncorrectable);

  EXPECT_EQ(unit.clean_count(), 1u);
  EXPECT_EQ(unit.corrected_count(), 1u);
  EXPECT_EQ(unit.uncorrectable_count(), 1u);
  EXPECT_EQ(unit.checks(), 3u);
  unit.reset_counters();
  EXPECT_EQ(unit.checks(), 0u);
}

}  // namespace
}  // namespace ftnoc
