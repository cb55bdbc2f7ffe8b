#pragma once
// Canonical paper grids, shared by the ftnoc_sweep and ftnoc_campaign CLIs
// and the golden tests, so "the Fig. 5 sweep" means the same list of points
// everywhere.
//
// Each builder takes a base config (scale knobs: message counts,
// max_cycles, mesh) and overlays the figure's defining axes on top.

#include <string>
#include <vector>

#include "sweep/sweep.hpp"

namespace ftnoc::sweep {

/// The link error rates swept by Figures 5-7 and 13.
const std::vector<double>& fig_error_rates();

/// Formats an error rate the way the figure labels do ("1e-05").
std::string rate_label(double rate);

/// Figure 5 grid: {HBH, E2E, FEC} x fig_error_rates() at 0.25
/// flits/node/cycle. The retransmission schemes run detection-only link
/// codes (pure techniques, resend on any detected error); FEC corrects
/// what it can and silently passes the rest.
std::vector<SweepPoint> fig05_points(const SimConfig& base);

/// Cthres ablation grid: the probe threshold swept over two orders of
/// magnitude under congested adaptive traffic (the paper's §3.2.2 claim is
/// that latency stays flat while only probe activity changes).
std::vector<SweepPoint> abl_cthres_points(const SimConfig& base);

/// Figures 6/7 grid: the proposed hybrid HBH scheme (SEC in place +
/// retransmission of multi-bit upsets) under the three destination
/// distributions NR / BC / TN x fig_error_rates() at injection 0.25.
/// Figure 6 reads the latency columns, Figure 7 the energy columns; the
/// grids differ only in their labels.
std::vector<SweepPoint> fig06_points(const SimConfig& base);
std::vector<SweepPoint> fig07_points(const SimConfig& base);

/// Figures 8/9 grid: {AD, DT} routing x injection rate 0.1..1.0. Points
/// past saturation never eject the full budget; they are capped in cycles
/// and report steady-state buffer utilizations (completed=false marks
/// them). Figure 8 reads tx_buffer_utilization, Figure 9
/// rtx_buffer_utilization.
std::vector<SweepPoint> fig08_points(const SimConfig& base);
std::vector<SweepPoint> fig09_points(const SimConfig& base);

/// Figure 13 grid: the three independently-simulated error mechanisms
/// (LINK-HBH / RT-Logic / SA-Logic) x error rate 1e-5..1e-2 (the paper
/// stops a decade earlier than Figures 5-7 here). 13(a) reads the
/// corrected-error counters, 13(b) the energy columns.
std::vector<SweepPoint> fig13a_points(const SimConfig& base);
std::vector<SweepPoint> fig13b_points(const SimConfig& base);

/// Graceful-degradation grid (DESIGN.md §4.9): adaptive routing with
/// deadlock recovery over k = 0..4 statically dead links, staggered so no
/// set partitions the mesh. Reads delivered fraction
/// (messages_ejected / packets_created), latency and the permanent-fault
/// columns (packets_rerouted / unreachable_drops).
std::vector<SweepPoint> fault_degradation_points(const SimConfig& base);

/// Fault-storm scenario (DESIGN.md §4.12): point k kills the first k links
/// of a shared timeline *mid-run* (one every 250 cycles) under adaptive
/// routing with deadlock recovery. Reads the delivered
/// fraction as a degradation curve; the kill set never partitions, so
/// unreachable_drops must end at 0 on every point.
std::vector<SweepPoint> fault_storm_points(const SimConfig& base);

/// Input-buffer grid (DESIGN.md §4.11): the private-VC buffers on two axes
/// — a Fig. 6-style error-rate sweep at injection 0.25 under hybrid HBH,
/// and a Fig. 8-style offered-load sweep under deterministic routing.
/// Both halves pin routing=xy; message counts are reduced to campaign
/// scale. The labels keep their historical "private_vc" segment.
std::vector<SweepPoint> buffer_ablation_points(const SimConfig& base);

/// Hot-path grid: a handful of short, deterministic points spanning the
/// simulator's distinct hot paths (each protection scheme, adaptive
/// routing with deadlock recovery, a 4-stage pipeline). Scale knobs are
/// pinned by the preset itself, so its golden digest and work pins do not
/// depend on the caller's scale.
std::vector<SweepPoint> perf_points(const SimConfig& base);

/// Production-fabric grid: the simulator's hot paths on a 16x16 mesh and
/// torus (256 routers) plus one 32x32 torus point (1024 routers) with a
/// reduced budget. Mesh dimensions and scale knobs are pinned by the
/// preset itself — like `perf` — so the byte stream (and its golden
/// digest) is independent of the caller's base scale.
std::vector<SweepPoint> large_mesh_points(const SimConfig& base);

/// The graceful-degradation grid rebuilt on a 16x16 mesh: k = 0..8 dead
/// links (twice the 8x8 grid's reach — a 256-router fabric absorbs more
/// cuts before the curve moves) with the same staggered, never-
/// partitioning kill sites. Scale knobs follow `base`; the mesh is pinned.
std::vector<SweepPoint> fault_degradation_16_points(const SimConfig& base);

/// Fault-under-real-load grid (DESIGN.md §4.14): a memory-controller
/// hotspot workload (many-to-one bursts over a background all-to-all),
/// pure trace-driven and run to drain, replayed against k = 0..4 dead
/// links with per-link heatmap accounting on. Scale knobs are pinned by
/// the preset; the mesh follows `base`.
std::vector<SweepPoint> workload_hotspot_points(const SimConfig& base);

/// Every preset name preset_points() accepts, in display order (for
/// "unknown preset" diagnostics and --help text).
const std::vector<std::string>& preset_names();

/// preset_names() joined with spaces — the one shared "valid presets:"
/// diagnostic line, so every CLI lists the same (complete) set and a new
/// preset can't be forgotten in one tool's copy of the loop.
std::string preset_names_line();

/// Maps a preset name ("fig05" ... "fig13b", "abl_cthres") to its grid;
/// returns an empty vector for an unknown name (callers should then list
/// preset_names()).
std::vector<SweepPoint> preset_points(const std::string& name,
                                      const SimConfig& base);

}  // namespace ftnoc::sweep
