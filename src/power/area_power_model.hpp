#pragma once
// Analytic area/power model of the NoC router — the substitute for the
// paper's Synopsys Design Compiler synthesis flow (TSMC 90 nm, 1 V,
// 500 MHz).
//
// The model decomposes the router into the components of Figure 1 and
// scales each with its natural structural law (buffer bits, crossbar
// cross-points, allocator arbitration matrix, comparator entries). The
// coefficients are calibrated so the paper's reference configuration —
// 5 physical channels, 4 VCs per PC, 4-flit buffers, 64-bit flits —
// reproduces the published totals exactly:
//
//   generic router: 119.55 mW, 0.374862 mm2
//   AC unit:          2.02 mW, 0.004474 mm2   (Table 1)
//
// Everything downstream (Table 1 tests, energy-per-event coefficients)
// consumes this model rather than hard-coded ratios, exactly as the paper
// "imported the power numbers into the cycle-accurate network simulator".

namespace ftnoc::power {

/// Structural parameters of one router.
struct RouterParams {
  int ports = 5;           ///< Physical channels (including the PE port).
  int vcs = 4;             ///< Virtual channels per physical channel.
  int buffer_depth = 4;    ///< Flits per VC transmission buffer.
  int flit_width = 64;     ///< Payload bits per flit (excluding ECC bits).
  int rtx_depth = 3;       ///< Retransmission-buffer depth per VC (0 = none).
};

/// Per-component figures; the unit is mm^2 for area and mW for power.
struct Breakdown {
  double buffers = 0.0;     ///< Input VC FIFO buffers.
  double crossbar = 0.0;    ///< P x P crossbar.
  double va = 0.0;          ///< Virtual-channel allocator.
  double sa = 0.0;          ///< Switch allocator.
  double rt = 0.0;          ///< Routing unit.
  double other = 0.0;       ///< Control, clocking, handshake lines.
  double rtx_buffers = 0.0; ///< Retransmission barrel shifters (FT add-on).
  double ac_unit = 0.0;     ///< Allocation Comparator (FT add-on).

  /// Generic-router subtotal (what Table 1 calls "Generic NoC Router").
  double generic_total() const {
    return buffers + crossbar + va + sa + rt + other;
  }
  /// Full fault-tolerant router.
  double total() const { return generic_total() + rtx_buffers + ac_unit; }
};

/// Computes the area breakdown (mm^2) for the given configuration.
Breakdown area_mm2(const RouterParams& p);

/// Computes the power breakdown (mW) at 500 MHz, full activity.
Breakdown power_mw(const RouterParams& p);

/// Table 1 of the paper, computed from the model.
struct AcOverheadReport {
  double router_power_mw = 0.0;
  double router_area_mm2 = 0.0;
  double ac_power_mw = 0.0;
  double ac_area_mm2 = 0.0;
  double power_overhead_pct = 0.0;
  double area_overhead_pct = 0.0;
};

AcOverheadReport ac_overhead(const RouterParams& p);

}  // namespace ftnoc::power
