#pragma once
// Simulation configuration. One flat struct keeps every knob in one place;
// components receive const references (or copies of the sub-struct they
// need) at construction and never consult globals.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ftnoc {

/// Which routing algorithm the routers run.
enum class RoutingAlgorithm : std::uint8_t {
  kXY,              ///< Deterministic dimension-ordered (paper's "DT").
  kMinimalAdaptive, ///< Minimal fully-adaptive (paper's "AD"); deadlock-prone.
  /// Duato-style deadlock *avoidance*: adaptive VCs plus a reserved escape
  /// VC (VC 0) driven by deadlock-free XY. The alternative the paper
  /// argues against in §3.2 — it needs no recovery, but "the flits in
  /// these escape VCs are managed by a deadlock-free deterministic routing
  /// algorithm, thereby limiting adaptivity".
  kAdaptiveEscape,
};

/// Link-level protection scheme (paper §3).
enum class LinkProtection : std::uint8_t {
  kNone,  ///< No protection; errors silently corrupt flits.
  kFec,   ///< Forward error correction only (SEC); double errors undetected
          ///< at the link, caught (but not recoverable) at the destination.
  kE2e,   ///< End-to-end retransmission with SEC/DED at the destination.
  kHbh,   ///< Paper's flit-based hop-by-hop retransmission (SEC/DED + NACK).
};

/// Destination distribution of synthetic traffic (paper §2.2).
enum class TrafficPattern : std::uint8_t {
  kUniformRandom,   ///< "NR": uniform over all other nodes.
  kBitComplement,   ///< "BC": dest = bitwise complement of source index.
  kTornado,         ///< "TN": dest = (x + X/2 - 1) mod X in each dimension.
};

/// Bugs the differential fuzzer can plant in the optimized router (never
/// the reference) to prove it catches them; SimConfig::test_mutation names
/// one.
enum class TestMutation : std::uint8_t {
  kNone,
  kDropWindow,         ///< "drop_window"
  kRouteIntoDeadLink,  ///< "route_into_dead_link"
  kStrandWaiter,       ///< "strand_waiter"
};

/// The plant a test_mutation name selects ("" = kNone), or nullopt for an
/// unknown name.
std::optional<TestMutation> parse_test_mutation(const std::string& name);

const char* to_string(RoutingAlgorithm a);
const char* to_string(LinkProtection p);
const char* to_string(TrafficPattern t);

/// Fault process rates. All are per-opportunity Bernoulli probabilities.
struct FaultConfig {
  /// Probability a flit is hit by an error during one link traversal.
  double link_error_rate = 0.0;
  /// Given a link error, probability it is a ≥2-bit upset (SEC cannot
  /// correct it; SEC/DED detects it). Single-bit otherwise.
  double multi_bit_fraction = 0.05;
  /// Probability a routing computation (per header flit, per hop) is upset.
  double rt_error_rate = 0.0;
  /// Probability a VA allocation (per granted output VC) is upset.
  double va_error_rate = 0.0;
  /// Probability an SA grant (per granted crossbar passage) is upset.
  double sa_error_rate = 0.0;
  /// Probability a retransmission-buffer copy is upset (per replay read).
  /// §4.5: without duplicate buffers this causes an endless
  /// retransmission loop.
  double rtx_error_rate = 0.0;
  /// Probability a handshake signal (credit / NACK line) is upset per
  /// transfer. §4.6: TMR on the handshake lines votes these away.
  double handshake_error_rate = 0.0;
};

/// Deadlock detection/recovery knobs (paper §3.2).
struct DeadlockConfig {
  bool enable_recovery = false;
  /// Blocked-cycle threshold before a probe is launched (paper's Cthres).
  Cycle probe_threshold = 64;
  /// Minimum gap between successive probes from the same VC.
  Cycle probe_backoff = 32;
  /// A probe that neither returned nor was superseded by an activation
  /// within this many cycles is considered lost (it was discarded at a
  /// non-blocked node); the router may probe again. Must comfortably
  /// exceed the largest possible cycle length (a few network diameters).
  Cycle probe_timeout = 128;
};

/// Most VCs per physical channel: the separable allocators use 32-wide
/// round-robin arbiters over P*V global VC ids, and P = 5 ports.
inline constexpr int kMaxVcs = 6;

struct SimConfig {
  // --- Topology (paper §2.2: 8x8 mesh) ---
  int mesh_width = 8;
  int mesh_height = 8;
  bool torus = false;  ///< Wrap-around links (used by tornado traffic study).

  // --- Router microarchitecture ---
  int num_vcs = 3;  ///< VCs per physical channel (paper: 3; <= kMaxVcs).
  int vc_buffer_depth = 4;    ///< Flits per VC transmission buffer.
  int pipeline_stages = 3;    ///< 1..4 (paper evaluates 3-stage).
  int retransmission_depth = 3;  ///< Barrel-shifter depth (paper: 3).

  // --- Traffic ---
  double injection_rate = 0.1;  ///< flits/node/cycle.
  int packet_length = 4;        ///< flits per packet (paper: 4).
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  /// Application-style workload replayed on top of (or, with
  /// injection_rate=0, instead of) the synthetic sources (DESIGN.md §4.14).
  /// `workload_file` names a workload text file ("workload=FILE"
  /// override); `workload_text` carries the same grammar inline (presets,
  /// tests). At most one may be set; parsing happens in the noc layer
  /// (Network's constructor), which aborts on a malformed workload.
  std::string workload_file;
  std::string workload_text;
  /// Accumulate per-directed-link forwarded-flit and stall-cycle counters
  /// ("link_stats=1"). Off by default: the counters are cheap but the JSONL
  /// columns they add would break byte-identity of existing outputs.
  bool link_stats = false;
  /// Terminate when the loaded trace/workload is fully drained (every
  /// released packet ejected or dropped) instead of after total_messages
  /// ejections ("run_to_drain=1"). Ignored when no trace is loaded;
  /// max_cycles still caps the run.
  bool run_to_drain = false;

  // --- Protection / routing ---
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  LinkProtection protection = LinkProtection::kHbh;
  /// Hard faults: links dead from the start of the run (both directions of
  /// the physical channel). The paper models link outages as static state
  /// in the VA's link-state table (§4.2); adaptive routing detours around
  /// them, deterministic routing cannot. Override syntax: "dead_link=5:E"
  /// (node 5's East link), repeatable. validate() rejects a link at a mesh
  /// edge (there is no channel to fail) and any set that partitions the
  /// mesh.
  std::vector<std::pair<NodeId, Direction>> dead_links;
  /// A link kill scheduled mid-run (the fault-storm timeline): at cycle
  /// `at` the network hard-fails the channel leaving `node` through `dir`
  /// — partition veto, drain on both endpoints, route-epoch bump. Vetoed
  /// kills are skipped, never retried; validate() rejects a kill at a mesh
  /// edge.
  struct LinkKill {
    Cycle at = 0;
    NodeId node = 0;
    Direction dir = Direction::kEast;
  };
  /// Storm schedule, sorted by cycle (validate() enforces). Override
  /// syntax: "storm_kill=CYCLE:NODE:D" with D in {N,E,S,W}, repeatable.
  std::vector<LinkKill> storm_kills;
  /// Self-healing routing tier (DESIGN.md §4.12): when every minimal
  /// fault-aware candidate of a waiting head is locally unusable (dead or
  /// draining), detour it non-minimally over the live escape ports closest
  /// to the destination instead of parking it (non-XY) or bouncing it back
  /// to RT (XY). Off by default; fault-free behaviour and all existing
  /// golden digests are unaffected. Override: "adaptive_faults=1".
  bool adaptive_faults = false;
  /// Allocation Comparator present (§4). Off = logic upsets go unprotected
  /// (ablation baseline).
  bool enable_ac = true;
  /// Detection-only link code: the receiver retransmits on *any* detected
  /// error instead of correcting single-bit upsets in place. Models the
  /// pure-retransmission baselines of the Figure 5 comparison; the paper's
  /// proposed scheme is the hybrid (false).
  bool ecc_detect_only = false;
  /// §4.5's fool-proof option: duplicate retransmission buffers. A
  /// corrupted barrel copy is recovered from the duplicate instead of
  /// looping forever; costs double rtx area/power.
  bool duplicate_rtx_buffers = false;
  /// §4.6: Triple Module Redundancy on the handshaking lines (credits and
  /// NACKs). On by default, as the paper proposes; disabling it exposes
  /// handshake upsets (credit leaks / lost NACKs).
  bool tmr_handshaking = true;
  FaultConfig faults;
  DeadlockConfig deadlock;

  // --- Verification / debug (not part of the sweep JSONL output) ---
  /// Attach the cycle-level InvariantMonitor (DESIGN.md §4.8); a
  /// violation logs a structured diagnostic and aborts.
  bool check_invariants = false;
  /// Build the network out of ReferenceRouter instances (the deliberately
  /// simple, allocation-happy model) instead of the optimized Router. Used
  /// by the differential fuzz harness; behaviour must be bit-identical.
  /// Reference networks step every router every cycle (the scan kernel);
  /// optimized ones run the event wheel (DESIGN.md §4.10).
  bool use_reference_router = false;
  /// Name of a deliberately planted bug, applied to the *optimized* router
  /// only ("" = none; validate() rejects unknown names). The fuzz harness
  /// plants one to prove it can detect divergences end to end:
  ///  * "drop_window" reverts the 4-stage HBH drop window to the pre-fix
  ///    now+2;
  ///  * "route_into_dead_link" routes with the fault-blind closed form,
  ///    steering headers at failed ports (faulted topologies only);
  ///  * "strand_waiter" leaves registered deadlock waiters on a draining
  ///    port instead of re-homing them.
  /// The router maps the name to a TestMutation once, at construction.
  std::string test_mutation;

  // --- Run control ---
  std::uint64_t seed = 1;
  std::uint64_t warmup_messages = 100'000;  ///< Paper: 100k warm-up.
  std::uint64_t total_messages = 300'000;   ///< Paper: 300k ejected total.
  Cycle max_cycles = 10'000'000;  ///< Hard stop (diverged/saturated runs).

  int num_nodes() const { return mesh_width * mesh_height; }

  /// True when a workload (file or inline text) is configured.
  bool has_workload() const {
    return !workload_file.empty() || !workload_text.empty();
  }

  /// True when the run can contain hard (permanent) faults: static dead
  /// links or scheduled storm kills. Gates the fault-only JSONL columns so
  /// fault-free output stays byte-identical.
  bool has_permanent_faults() const {
    return !dead_links.empty() || !storm_kills.empty();
  }

  /// True when every network output VC carries a retransmission barrel:
  /// under HBH link protection, or when deadlock recovery (which reuses
  /// the barrels) is enabled — the paper's observation that forgoing
  /// recovery support needs only the 3-deep link-error buffers.
  bool has_rtx_barrels() const {
    return protection == LinkProtection::kHbh || deadlock.enable_recovery;
  }

  /// Validates invariants (positive sizes, rates in [0,1], ...).
  /// Returns an error description, or nullopt if the config is valid.
  std::optional<std::string> validate() const;
};

/// Eq. (1): with n nodes in the deadlock, M flits per packet, transmission
/// buffer sizes T_i and retransmission buffer sizes R_i, recovery is
/// guaranteed iff  sum_i (T_i + R_i) > M * sum_i ceil(T_i / M). At equality
/// the absorbed flits exactly refill the freed slots and recovery
/// livelocks.
bool recovery_buffer_bound_ok(const std::vector<int>& tx_sizes,
                              const std::vector<int>& rtx_sizes,
                              int flits_per_packet);

/// Whether a FTNOC_CONFIG_KEYS row is a sweep JSONL column and part of the
/// campaign config hash (which hashes the config columns).
enum class ConfigColumn : std::uint8_t {
  kAlways,    ///< Always a column.
  kIfSet,     ///< A column only off its default (the default-false flags),
              ///< so outputs from before the key existed keep their bytes.
  kHashOnly,  ///< Never a column; hashed only off its default.
  kNone,      ///< Neither: the seed and the verification switches.
};

/// Every override key, in JSONL column order. X(key, member, rule): `key`
/// is the key=value name and the column name, `member` its SimConfig
/// field, whose type is the value kind (int, uint64, double, bool, enum,
/// text), `rule` a ConfigColumn. COMPOSITE(key) marks a key with its own
/// parser and column (dead_link, storm_kill, workload). apply_override and
/// sweep::append_config_fields walk this table, so a new key is one row
/// plus its member.
#define FTNOC_CONFIG_KEYS(X, COMPOSITE)                           \
  X(mesh_width, mesh_width, kAlways)                              \
  X(mesh_height, mesh_height, kAlways)                            \
  X(torus, torus, kAlways)                                        \
  X(num_vcs, num_vcs, kAlways)                                    \
  X(vc_buffer_depth, vc_buffer_depth, kAlways)                    \
  X(pipeline_stages, pipeline_stages, kAlways)                    \
  X(retransmission_depth, retransmission_depth, kAlways)          \
  X(injection_rate, injection_rate, kAlways)                      \
  X(packet_length, packet_length, kAlways)                        \
  X(pattern, pattern, kAlways)                                    \
  X(routing, routing, kAlways)                                    \
  X(protection, protection, kAlways)                              \
  X(ecc_detect_only, ecc_detect_only, kAlways)                    \
  X(enable_ac, enable_ac, kAlways)                                \
  X(duplicate_rtx_buffers, duplicate_rtx_buffers, kAlways)        \
  X(tmr_handshaking, tmr_handshaking, kAlways)                    \
  X(link_error_rate, faults.link_error_rate, kAlways)             \
  X(multi_bit_fraction, faults.multi_bit_fraction, kAlways)       \
  X(rt_error_rate, faults.rt_error_rate, kAlways)                 \
  X(va_error_rate, faults.va_error_rate, kAlways)                 \
  X(sa_error_rate, faults.sa_error_rate, kAlways)                 \
  X(rtx_error_rate, faults.rtx_error_rate, kAlways)               \
  X(handshake_error_rate, faults.handshake_error_rate, kAlways)   \
  X(deadlock_recovery, deadlock.enable_recovery, kAlways)         \
  X(probe_threshold, deadlock.probe_threshold, kAlways)           \
  X(warmup_messages, warmup_messages, kAlways)                    \
  X(total_messages, total_messages, kAlways)                      \
  X(max_cycles, max_cycles, kAlways)                              \
  COMPOSITE(dead_link)                                            \
  COMPOSITE(storm_kill)                                           \
  X(adaptive_faults, adaptive_faults, kIfSet)                     \
  COMPOSITE(workload)                                             \
  X(run_to_drain, run_to_drain, kIfSet)                           \
  X(link_stats, link_stats, kIfSet)                               \
  X(probe_backoff, deadlock.probe_backoff, kHashOnly)             \
  X(probe_timeout, deadlock.probe_timeout, kHashOnly)             \
  X(check_invariants, check_invariants, kNone)                    \
  X(reference_router, use_reference_router, kNone)                \
  X(test_mutation, test_mutation, kNone)                          \
  X(seed, seed, kNone)

/// Parses one `key=value` override (e.g. from argv) into `cfg`; the keys
/// are FTNOC_CONFIG_KEYS. Enum values take their to_string names or an
/// alias ("dt", "ad", "duato", "uniform", ...); booleans 1/0, true/false,
/// on/off. Returns an error message on unknown key or malformed value.
std::optional<std::string> apply_override(SimConfig& cfg,
                                          const std::string& assignment);

/// Applies a whole argv-style list of overrides; stops at the first error.
std::optional<std::string> apply_overrides(
    SimConfig& cfg, const std::vector<std::string>& assignments);

/// Strict numeric parsers shared by the override keys and the CLI flags:
/// true only when all of `v` is one well-formed number. On false, `out`
/// holds an unspecified value.
bool parse_int(const std::string& v, int& out);
bool parse_u64(const std::string& v, std::uint64_t& out);
bool parse_double(const std::string& v, double& out);

}  // namespace ftnoc
