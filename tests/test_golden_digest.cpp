// Golden byte-identity tests: the fig05/fig06 preset sweeps at CI scale,
// pinned by an FNV-1a digest of the exact JSONL byte stream.
//
// These digests are the determinism contract for hot-path work on the
// router kernel (DESIGN.md "Active-list cycle kernel"): any change to the
// simulation — iteration order, RNG draw order, energy-charge order,
// floating-point accumulation order — shows up here as a digest mismatch,
// while a pure performance change keeps the bytes bit-for-bit identical.
// If a deliberate behaviour change moves the digests, re-pin them with:
//
//   build/tools/ftnoc_sweep --preset=fig05 --threads=1 --quiet
//     total_messages=600 warmup_messages=150 max_cycles=300000
//     mesh_width=4 mesh_height=4      (one command; fnv1a over lines
//                                      including each trailing newline)

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/presets.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char b : s) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

// Replicates the ftnoc_sweep invocation in the header comment exactly:
// default base config + scale overrides, preset axes, default engine
// seeding (base_seed 1, per-point derivation), one JSONL line + '\n' per
// point in point order.
std::uint64_t preset_digest(const std::string& preset, int threads = 2,
                            bool force_scan_kernel = false,
                            BufferPolicyKind buffer_policy =
                                BufferPolicyKind::kPrivateVc) {
  SimConfig base;
  base.total_messages = 600;
  base.warmup_messages = 150;
  base.max_cycles = 300'000;
  base.mesh_width = 4;
  base.mesh_height = 4;
  base.force_scan_kernel = force_scan_kernel;
  base.buffer_policy = buffer_policy;

  const auto points = sweep::preset_points(preset, base);
  EXPECT_FALSE(points.empty());

  sweep::SweepOptions opts;
  opts.num_threads = threads;  // Digest is thread-count-invariant by design.
  std::uint64_t h = kFnvOffset;
  for (const auto& pr : sweep::SweepEngine(opts).run(points)) {
    h = fnv1a(sweep::to_jsonl(pr) + "\n", h);
  }
  return h;
}

TEST(GoldenDigest, Fig05PresetByteIdentical) {
  const std::uint64_t h = preset_digest("fig05");
  EXPECT_EQ(h, 0x8d2e0d339df31f1dull)
      << "fig05 JSONL digest moved: 0x" << std::hex << h
      << " — the simulation is no longer byte-identical to the pinned run";
}

TEST(GoldenDigest, Fig06PresetByteIdentical) {
  const std::uint64_t h = preset_digest("fig06");
  EXPECT_EQ(h, 0x601a10743b2187aeull)
      << "fig06 JSONL digest moved: 0x" << std::hex << h
      << " — the simulation is no longer byte-identical to the pinned run";
}

TEST(GoldenDigest, Fig07PresetByteIdentical) {
  const std::uint64_t h = preset_digest("fig07");
  EXPECT_EQ(h, 0xec4738de9dcd17afull)
      << "fig07 JSONL digest moved: 0x" << std::hex << h
      << " — the simulation is no longer byte-identical to the pinned run";
}

// The perf preset covers the five hot paths ftnoc_perf times (HBH, FEC,
// E2E, adaptive+recovery, 4-stage); pinning it keeps the perf baselines
// comparable across builds — a perf run whose digest moved is measuring a
// different simulation.
TEST(GoldenDigest, PerfPresetByteIdentical) {
  const std::uint64_t h = preset_digest("perf");
  EXPECT_EQ(h, 0x97fae896b7bbf52aull)
      << "perf JSONL digest moved: 0x" << std::hex << h
      << " — the simulation is no longer byte-identical to the pinned run";
}

// The fault_degradation preset is the only family that exercises the
// static permanent-fault machinery (dead links, fault-aware routing,
// fault-gated JSONL columns); without a pin, a regression there is
// invisible to the other four digests.
TEST(GoldenDigest, FaultDegradationPresetByteIdentical) {
  const std::uint64_t h = preset_digest("fault_degradation");
  EXPECT_EQ(h, 0xb120c92882680d7dull)
      << "fault_degradation JSONL digest moved: 0x" << std::hex << h
      << " — the simulation is no longer byte-identical to the pinned run";
}

// The fault_storm preset is the only pinned family whose faults land
// *mid-run* (storm kills, drains, route-epoch re-homes and the
// non-minimal escape tier all fire inside the measurement window); the
// static fault_degradation pin above cannot see a byte-level regression
// in any of that machinery.
TEST(GoldenDigest, FaultStormPresetByteIdentical) {
  const std::uint64_t h = preset_digest("fault_storm");
  EXPECT_EQ(h, 0xde51621525d980dfull)
      << "fault_storm JSONL digest moved: 0x" << std::hex << h
      << " — the simulation is no longer byte-identical to the pinned run";
}

// Kernel/thread invariance: the event-queue kernel (DESIGN.md §4.10) and
// the reference full-scan kernel must produce the same bytes, and the
// sweep digest must not depend on how many worker threads ran the points.
// All four (kernel × threads) combinations are pinned to the SAME value —
// the fig05 digest above — so a divergence names the offending axis.
TEST(GoldenDigest, KernelAndThreadCountInvariant) {
  constexpr std::uint64_t kPinned = 0x8d2e0d339df31f1dull;
  struct Combo {
    int threads;
    bool force_scan;
    const char* what;
  };
  const Combo combos[] = {
      {1, false, "event kernel, 1 thread"},
      {1, true, "scan kernel, 1 thread"},
      {2, true, "scan kernel, 2 threads"},
      // {2, false} is Fig05PresetByteIdentical above.
  };
  for (const auto& c : combos) {
    const std::uint64_t h = preset_digest("fig05", c.threads, c.force_scan);
    EXPECT_EQ(h, kPinned)
        << c.what << " produced digest 0x" << std::hex << h
        << " — kernels/thread-counts are no longer byte-interchangeable";
  }
}

// Same invariance under damq: the event-queue kernel's wake rules must
// cover the shared-credit transitions too (a missed retick would stall or
// reorder a shared-credit send only in the event kernel, splitting the
// digests). The combos are compared to each other rather than to a pin —
// byte-stability of the damq path across builds is what the
// buffer_ablation pin below is for.
TEST(GoldenDigest, KernelAndThreadCountInvariantUnderDamq) {
  const std::uint64_t ref =
      preset_digest("fig05", 1, false, BufferPolicyKind::kDamq);
  struct Combo {
    int threads;
    bool force_scan;
    const char* what;
  };
  const Combo combos[] = {
      {1, true, "scan kernel, 1 thread"},
      {2, false, "event kernel, 2 threads"},
      {2, true, "scan kernel, 2 threads"},
  };
  for (const auto& c : combos) {
    const std::uint64_t h =
        preset_digest("fig05", c.threads, c.force_scan,
                      BufferPolicyKind::kDamq);
    EXPECT_EQ(h, ref)
        << c.what << " produced digest 0x" << std::hex << h
        << " under damq — kernels/thread-counts are no longer "
           "byte-interchangeable";
  }
}

// damq at reserve = depth has no shared region: it must be the private_vc
// layout exactly. Every fig05 line must match its private_vc twin byte for
// byte once the two damq config columns are stripped, under both kernels.
TEST(GoldenDigest, DamqAtFullReserveMatchesPrivateVc) {
  for (const bool scan : {false, true}) {
    SimConfig base;
    base.total_messages = 600;
    base.warmup_messages = 150;
    base.max_cycles = 300'000;
    base.mesh_width = 4;
    base.mesh_height = 4;
    base.force_scan_kernel = scan;
    SimConfig damq = base;
    damq.buffer_policy = BufferPolicyKind::kDamq;
    damq.damq_reserve_slots = damq.vc_buffer_depth;
    const std::string columns = ",\"buffer_policy\":\"damq\","
                                "\"damq_reserve_slots\":" +
                                std::to_string(damq.vc_buffer_depth);

    sweep::SweepOptions opts;
    opts.num_threads = 2;
    sweep::SweepEngine engine(opts);
    const auto priv = engine.run(sweep::preset_points("fig05", base));
    const auto shared = engine.run(sweep::preset_points("fig05", damq));
    ASSERT_EQ(priv.size(), shared.size());
    ASSERT_FALSE(priv.empty());
    for (std::size_t i = 0; i < priv.size(); ++i) {
      std::string line = sweep::to_jsonl(shared[i]);
      const auto at = line.find(columns);
      ASSERT_NE(at, std::string::npos) << line;
      line.erase(at, columns.size());
      EXPECT_EQ(line, sweep::to_jsonl(priv[i]))
          << (scan ? "scan" : "event") << " kernel, point " << i;
    }
  }
}

// The large_mesh preset is the only pinned family that runs production
// fabrics: 16x16 mesh and torus (wrap-around channels under tornado
// traffic) and a 32x32 torus. Its scale knobs and mesh dimensions are
// pinned inside the preset, so the 4x4 base overrides below don't touch
// it — the digest covers byte streams no other pin can see (torus
// routing, diameter-30 paths, 1024-router construction). Pinned under
// BOTH kernels to the same value: at 256+ routers under moderate load
// most of the fabric is idle most cycles, exactly where the event
// kernel's wake rules can silently diverge from the scan kernel.
TEST(GoldenDigest, LargeMeshPresetByteIdenticalBothKernels) {
  constexpr std::uint64_t kPinned = 0x8969035bbec46951ull;
  const std::uint64_t event_h = preset_digest("large_mesh");
  EXPECT_EQ(event_h, kPinned)
      << "large_mesh JSONL digest moved (event kernel): 0x" << std::hex
      << event_h
      << " — the simulation is no longer byte-identical to the pinned run";
  const std::uint64_t scan_h =
      preset_digest("large_mesh", 2, /*force_scan_kernel=*/true);
  EXPECT_EQ(scan_h, kPinned)
      << "large_mesh JSONL digest moved (scan kernel): 0x" << std::hex
      << scan_h << " — the kernels are no longer byte-interchangeable on "
                   "production fabrics";
}

// The buffer_ablation preset is the only pinned family that runs damq
// with a shared region; without it a byte-level regression in the
// shared-credit path is invisible to the other digests (which all run the
// default private_vc layout). Re-pinned when the VOQ policy was deleted:
// the value is the digest of the first 20 of the previous 30 lines (the
// private_vc and damq rows, byte-identical), so only the VOQ rows left.
TEST(GoldenDigest, BufferAblationPresetByteIdentical) {
  const std::uint64_t h = preset_digest("buffer_ablation");
  EXPECT_EQ(h, 0x1bdad0e11753ded4ull)
      << "buffer_ablation JSONL digest moved: 0x" << std::hex << h
      << " — the simulation is no longer byte-identical to the pinned run";
}

// The workload_hotspot preset is the only pinned family that runs the
// workload/replay machinery end to end: text-workload expansion,
// timer-driven trace release, run-to-drain termination and the per-link
// utilization columns (the one pinned stream where link_stats is ON —
// proving the accounting itself is deterministic, while the unchanged
// digests above prove that default runs don't carry the columns). Pinned
// under BOTH kernels: trace release is pure timer wake-up, the event
// kernel's hardest case.
TEST(GoldenDigest, WorkloadHotspotPresetByteIdenticalBothKernels) {
  constexpr std::uint64_t kPinned = 0x8f3543d83cf2ae66ull;
  const std::uint64_t event_h = preset_digest("workload_hotspot");
  EXPECT_EQ(event_h, kPinned)
      << "workload_hotspot JSONL digest moved (event kernel): 0x" << std::hex
      << event_h
      << " — the simulation is no longer byte-identical to the pinned run";
  const std::uint64_t scan_h =
      preset_digest("workload_hotspot", 2, /*force_scan_kernel=*/true);
  EXPECT_EQ(scan_h, kPinned)
      << "workload_hotspot JSONL digest moved (scan kernel): 0x" << std::hex
      << scan_h << " — the kernels are no longer byte-interchangeable on "
                   "workload replay";
}

}  // namespace
}  // namespace ftnoc
