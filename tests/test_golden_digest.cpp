// Golden byte-identity tests: every pinned preset sweep at CI scale,
// pinned by an FNV-1a digest of the exact JSONL byte stream and by the
// event kernel's work (router steps and wire ticks, summed over points).
//
// These digests are the determinism contract for hot-path work on the
// router kernel (DESIGN.md "Active-list cycle kernel"): any change to the
// simulation — iteration order, RNG draw order, energy-charge order,
// floating-point accumulation order — shows up here as a digest mismatch,
// while a pure performance change keeps the bytes bit-for-bit identical.
// The work pins catch what a digest cannot: a kernel that steps routers or
// ticks wires it does not need to produces the same bytes but more work.
// If a deliberate behaviour change moves a digest, or a deliberate kernel
// change moves a work total, re-pin it with a reason in CHANGES.md
// (DESIGN.md §4.7). The digest is that of:
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

// What a preset sweep is pinned by: the digest of its JSONL byte stream
// and the kernel work summed over its points.
struct PresetRun {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t router_steps = 0;
  std::uint64_t wire_ticks = 0;
};

// Replicates the ftnoc_sweep invocation in the header comment exactly:
// default base config + scale overrides, preset axes, default engine
// seeding (base_seed 1, per-point derivation), one JSONL line + '\n' per
// point in point order. `reference_router` builds every network from
// ReferenceRouter, which runs the full-scan kernel.
PresetRun run_preset(const std::string& preset, int threads = 2,
                     bool reference_router = false) {
  SimConfig base;
  base.total_messages = 600;
  base.warmup_messages = 150;
  base.max_cycles = 300'000;
  base.mesh_width = 4;
  base.mesh_height = 4;
  base.use_reference_router = reference_router;

  const auto points = sweep::preset_points(preset, base);
  EXPECT_FALSE(points.empty());

  sweep::SweepOptions opts;
  opts.num_threads = threads;  // Digest is thread-count-invariant by design.
  PresetRun run;
  for (const auto& pr : sweep::SweepEngine(opts).run(points)) {
    run.digest = fnv1a(sweep::to_jsonl(pr) + "\n", run.digest);
    run.router_steps += pr.results.router_steps;
    run.wire_ticks += pr.results.wire_ticks;
  }
  return run;
}

// Event-kernel work pins, checked next to each digest.
void expect_work(const std::string& preset, const PresetRun& run,
                 std::uint64_t router_steps, std::uint64_t wire_ticks) {
  EXPECT_EQ(run.router_steps, router_steps)
      << preset << " router steps moved: " << run.router_steps
      << " — the event kernel steps a different set of routers";
  EXPECT_EQ(run.wire_ticks, wire_ticks)
      << preset << " wire ticks moved: " << run.wire_ticks
      << " — the event kernel ticks a different set of wires";
}

constexpr std::uint64_t kFig05Digest = 0x8d2e0d339df31f1dull;
constexpr std::uint64_t kFig05RouterSteps = 137'242;
constexpr std::uint64_t kFig05WireTicks = 291'917;

TEST(GoldenDigest, Fig05PresetByteIdentical) {
  const PresetRun run = run_preset("fig05");
  EXPECT_EQ(run.digest, kFig05Digest)
      << "fig05 JSONL digest moved: 0x" << std::hex << run.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("fig05", run, kFig05RouterSteps, kFig05WireTicks);
}

TEST(GoldenDigest, Fig06PresetByteIdentical) {
  const PresetRun run = run_preset("fig06");
  EXPECT_EQ(run.digest, 0x601a10743b2187aeull)
      << "fig06 JSONL digest moved: 0x" << std::hex << run.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("fig06", run, 136'515, 286'603);
}

TEST(GoldenDigest, Fig07PresetByteIdentical) {
  const PresetRun run = run_preset("fig07");
  EXPECT_EQ(run.digest, 0xec4738de9dcd17afull)
      << "fig07 JSONL digest moved: 0x" << std::hex << run.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("fig07", run, 136'515, 286'603);
}

// The perf preset covers five distinct hot paths (HBH, FEC, E2E,
// adaptive+recovery, 4-stage) at a scale pinned inside the preset, so its
// work pins track the kernel's cost on each of them.
TEST(GoldenDigest, PerfPresetByteIdentical) {
  const PresetRun run = run_preset("perf");
  EXPECT_EQ(run.digest, 0x97fae896b7bbf52aull)
      << "perf JSONL digest moved: 0x" << std::hex << run.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("perf", run, 145'889, 286'457);
}

// The fault_degradation preset is the only family that exercises the
// static permanent-fault machinery (dead links, fault-aware routing,
// fault-gated JSONL columns); without a pin, a regression there is
// invisible to the other four digests.
TEST(GoldenDigest, FaultDegradationPresetByteIdentical) {
  const PresetRun run = run_preset("fault_degradation");
  EXPECT_EQ(run.digest, 0xb120c92882680d7dull)
      << "fault_degradation JSONL digest moved: 0x" << std::hex << run.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("fault_degradation", run, 51'551, 92'402);
}

// The fault_storm preset is the only pinned family whose faults land
// *mid-run* (storm kills, drains and route-epoch re-homes all fire
// inside the measurement window); the
// static fault_degradation pin above cannot see a byte-level regression
// in any of that machinery.
TEST(GoldenDigest, FaultStormPresetByteIdentical) {
  const PresetRun run = run_preset("fault_storm");
  EXPECT_EQ(run.digest, 0xde51621525d980dfull)
      << "fault_storm JSONL digest moved: 0x" << std::hex << run.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("fault_storm", run, 51'329, 91'646);
}

// Kernel/thread invariance: the optimized Router on the event-queue kernel
// (DESIGN.md §4.10) and the ReferenceRouter on the full-scan kernel must
// produce the same bytes, and the sweep digest must not depend on how many
// worker threads ran the points.
// All four (kernel × threads) combinations are pinned to the SAME value —
// the fig05 digest above — so a divergence names the offending axis.
TEST(GoldenDigest, KernelAndThreadCountInvariant) {
  struct Combo {
    int threads;
    bool reference;
    const char* what;
  };
  const Combo combos[] = {
      {1, false, "event kernel, 1 thread"},
      {1, true, "reference scan kernel, 1 thread"},
      {2, true, "reference scan kernel, 2 threads"},
      // {2, false} is Fig05PresetByteIdentical above.
  };
  for (const auto& c : combos) {
    const PresetRun run = run_preset("fig05", c.threads, c.reference);
    EXPECT_EQ(run.digest, kFig05Digest)
        << c.what << " produced digest 0x" << std::hex << run.digest
        << " — kernels/thread-counts are no longer byte-interchangeable";
    // The event kernel's work is thread-count-invariant too.
    if (!c.reference) {
      expect_work(std::string("fig05, ") + c.what, run, kFig05RouterSteps,
                  kFig05WireTicks);
    }
  }
}

// The large_mesh preset is the only pinned family that runs production
// fabrics: 16x16 mesh and torus (wrap-around channels under tornado
// traffic) and a 32x32 torus. Its scale knobs and mesh dimensions are
// pinned inside the preset, so the 4x4 base overrides below don't touch
// it — the digest covers byte streams no other pin can see (torus
// routing, diameter-30 paths, 1024-router construction). Pinned under
// BOTH kernels to the same value (the ReferenceRouter runs the scan): at
// 256+ routers under moderate load most of the fabric is idle most
// cycles, exactly where the event kernel's wake rules can silently
// diverge from the scan kernel.
TEST(GoldenDigest, LargeMeshPresetByteIdenticalBothKernels) {
  constexpr std::uint64_t kPinned = 0x8969035bbec46951ull;
  const PresetRun event = run_preset("large_mesh");
  EXPECT_EQ(event.digest, kPinned)
      << "large_mesh JSONL digest moved (event kernel): 0x" << std::hex
      << event.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("large_mesh", event, 946'539, 1'934'902);
  const std::uint64_t scan_h =
      run_preset("large_mesh", 2, /*reference_router=*/true).digest;
  EXPECT_EQ(scan_h, kPinned)
      << "large_mesh JSONL digest moved (scan kernel): 0x" << std::hex
      << scan_h << " — the kernels are no longer byte-interchangeable on "
                   "production fabrics";
}

// The buffer_ablation preset pins the private-VC buffers under retransmit
// pressure and past saturation (cycle-capped load points). Re-pinned when
// the shared-buffer policy was deleted (EXPERIMENTS.md buffer_ablation):
// the digest and work totals are those of the first 10 of the previous 20
// lines (the private_vc rows, byte-identical), so only its rows left.
TEST(GoldenDigest, BufferAblationPresetByteIdentical) {
  const PresetRun run = run_preset("buffer_ablation");
  EXPECT_EQ(run.digest, 0x33b6a2d182cc7bdeull)
      << "buffer_ablation JSONL digest moved: 0x" << std::hex << run.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("buffer_ablation", run, 73'304, 163'410);
}

// The workload_hotspot preset is the only pinned family that runs the
// workload/replay machinery end to end: text-workload expansion,
// timer-driven trace release, run-to-drain termination and the per-link
// utilization columns (the one pinned stream where link_stats is ON —
// proving the accounting itself is deterministic, while the unchanged
// digests above prove that default runs don't carry the columns). Pinned
// under BOTH kernels (the ReferenceRouter runs the scan): trace release is
// pure timer wake-up, the event kernel's hardest case.
TEST(GoldenDigest, WorkloadHotspotPresetByteIdenticalBothKernels) {
  constexpr std::uint64_t kPinned = 0x8f3543d83cf2ae66ull;
  const PresetRun event = run_preset("workload_hotspot");
  EXPECT_EQ(event.digest, kPinned)
      << "workload_hotspot JSONL digest moved (event kernel): 0x" << std::hex
      << event.digest
      << " — the simulation is no longer byte-identical to the pinned run";
  expect_work("workload_hotspot", event, 191'748, 140'285);
  const std::uint64_t scan_h =
      run_preset("workload_hotspot", 2, /*reference_router=*/true).digest;
  EXPECT_EQ(scan_h, kPinned)
      << "workload_hotspot JSONL digest moved (scan kernel): 0x" << std::hex
      << scan_h << " — the kernels are no longer byte-interchangeable on "
                   "workload replay";
}

}  // namespace
}  // namespace ftnoc
