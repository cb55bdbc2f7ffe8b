// Unit tests for the area/power model (Table 1 substitute) and the
// per-event energy meter.

#include <gtest/gtest.h>

#include "power/area_power_model.hpp"
#include "power/energy_model.hpp"

namespace ftnoc::power {
namespace {

TEST(AreaPowerModel, ReferenceConfigMatchesPaperTotals) {
  // 5 PCs, 4 VCs/PC, 90 nm, 1 V, 500 MHz — the paper's synthesized router.
  RouterParams ref;
  const Breakdown area = area_mm2(ref);
  const Breakdown power = power_mw(ref);
  EXPECT_NEAR(area.generic_total(), 0.374862, 1e-6);
  EXPECT_NEAR(power.generic_total(), 119.55, 1e-3);
  EXPECT_NEAR(area.ac_unit, 0.004474, 1e-6);
  EXPECT_NEAR(power.ac_unit, 2.02, 1e-3);
}

TEST(AreaPowerModel, Table1OverheadPercentages) {
  const AcOverheadReport r = ac_overhead(RouterParams{});
  EXPECT_NEAR(r.power_overhead_pct, 1.69, 0.02);
  EXPECT_NEAR(r.area_overhead_pct, 1.19, 0.02);
}

TEST(AreaPowerModel, BuffersDominateArea) {
  const Breakdown area = area_mm2(RouterParams{});
  EXPECT_GT(area.buffers, area.crossbar);
  EXPECT_GT(area.buffers, area.va + area.sa + area.rt);
}

TEST(AreaPowerModel, AreaScalesWithBufferDepth) {
  RouterParams deep;
  deep.buffer_depth = 8;
  const double base = area_mm2(RouterParams{}).buffers;
  EXPECT_NEAR(area_mm2(deep).buffers, base * 2.0, 1e-9);
}

TEST(AreaPowerModel, CrossbarScalesQuadraticallyWithPorts) {
  RouterParams small;
  small.ports = 4;
  const double c5 = area_mm2(RouterParams{}).crossbar;
  const double c4 = area_mm2(small).crossbar;
  EXPECT_NEAR(c4 / c5, 16.0 / 25.0, 1e-9);
}

TEST(AreaPowerModel, RtxBuffersCostSamePerBitAsTxBuffers) {
  RouterParams p;  // depth 4, rtx depth 3.
  const Breakdown area = area_mm2(p);
  EXPECT_NEAR(area.rtx_buffers / area.buffers, 3.0 / 4.0, 1e-9);
}

TEST(AreaPowerModel, NoRtxBuffersWhenDepthZero) {
  RouterParams p;
  p.rtx_depth = 0;
  EXPECT_DOUBLE_EQ(area_mm2(p).rtx_buffers, 0.0);
}

TEST(AreaPowerModel, AcOverheadStaysSmallAcrossConfigs) {
  // The paper's point: the AC is a tiny fraction of the router for any
  // reasonable configuration. EXPERIMENTS.md documents "<= ~1.7%" over
  // V in {2, 3, 4, 6}; the measured maxima are 1.6897% (power) and
  // 1.1935% (area).
  for (int vcs : {2, 3, 4, 6}) {
    RouterParams p;
    p.vcs = vcs;
    const AcOverheadReport r = ac_overhead(p);
    EXPECT_LE(r.area_overhead_pct, 1.7) << "vcs=" << vcs;
    EXPECT_LE(r.power_overhead_pct, 1.7) << "vcs=" << vcs;
  }
}

TEST(EnergyMeter, AccumulatesChargedEvents) {
  EnergyMeter m;
  m.charge(EnergyEvent::kBufferWrite);
  m.charge(EnergyEvent::kLinkTraversal, 2);
  const EnergyTable t = default_energy_table();
  EXPECT_DOUBLE_EQ(m.total_pj(), t.get(EnergyEvent::kBufferWrite) +
                                     2 * t.get(EnergyEvent::kLinkTraversal));
  EXPECT_EQ(m.count(EnergyEvent::kLinkTraversal), 2u);
}

TEST(EnergyMeter, ResetZeroesEverything) {
  EnergyMeter m;
  m.charge(EnergyEvent::kCrossbarTraversal, 10);
  m.reset();
  EXPECT_DOUBLE_EQ(m.total_pj(), 0.0);
  EXPECT_EQ(m.count(EnergyEvent::kCrossbarTraversal), 0u);
}

TEST(EnergyTable, AllCoefficientsPositive) {
  const EnergyTable t = default_energy_table();
  for (int i = 0; i < kNumEnergyEvents; ++i) {
    EXPECT_GT(t.pj[i], 0.0) << "event " << i;
  }
}

TEST(EnergyTable, LinkDominatesPerFlitCosts) {
  // 90 nm global wires dominate per-flit-hop energy; the model keeps that
  // ordering so Figure 7's energy shape (hop-count driven) is preserved.
  const EnergyTable t = default_energy_table();
  EXPECT_GT(t.get(EnergyEvent::kLinkTraversal),
            t.get(EnergyEvent::kBufferWrite));
  EXPECT_GT(t.get(EnergyEvent::kLinkTraversal),
            t.get(EnergyEvent::kCrossbarTraversal));
}

}  // namespace
}  // namespace ftnoc::power
