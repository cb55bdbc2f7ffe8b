#pragma once
// Recovery-latency model for intra-router logic soft errors (paper §4).
//
// The paper analyzes, per router component and per pipeline depth, how many
// cycles a detected logic upset costs to recover from. These penalties are
// charged by the simulator when the AC unit (or a downstream checker)
// catches an upset, and are validated against the paper's stated numbers in
// the unit tests (LogicErrorModel.*).

namespace ftnoc {

/// How a routing-unit misdirection manifests (§4.2).
enum class RtMisrouteKind {
  /// The wrong direction is blocked or physically absent (mesh edge /
  /// hard-failed link) — caught by a VA consulting its link-state table.
  kBlockedOrInvalid,
  /// The wrong direction is functional — undetectable locally; under
  /// deterministic routing the *receiving* router detects the violation
  /// and NACKs.
  kFunctionalDeterministic,
  /// Functional path under adaptive routing — never detected; the packet
  /// simply takes a longer route (zero recovery penalty, latency is paid
  /// organically through the extra hops).
  kFunctionalAdaptive,
};

/// Cycles lost recovering from a VA logic error caught by the AC unit.
/// "The duration of the recovery phase is independent of the pipeline
/// architecture ... incurring single-clock latency overhead" (§4.1).
int va_recovery_penalty(int pipeline_stages);

/// Cycles lost recovering from an SA logic error caught by the AC unit.
/// "In all cases ... this amounts for single-clock latency overhead" (§4.3).
int sa_recovery_penalty(int pipeline_stages);

/// Cycles lost when an SA error produced a corrupt flit that only the next
/// router's ECC catches: NACK + retransmission = 2 cycles (§4.3 case (c)).
int sa_collision_retransmit_penalty();

/// Cycles lost recovering from a routing-unit misdirection (§4.2).
///
/// @param pipeline_stages 1..4.
/// @param lookahead       true if the architecture performs look-ahead
///                        routing (typical for 1- and 2-stage routers);
///                        false for current-node routing (3-/4-stage).
int rt_recovery_penalty(int pipeline_stages, bool lookahead,
                        RtMisrouteKind kind);

/// True for pipeline depths where the AC check overlaps crossbar traversal,
/// so an erroneous flit already left the router and neighbours must be
/// NACKed to ignore it (§4.1: every depth except the 4-stage router).
bool ac_requires_neighbor_nack(int pipeline_stages);

}  // namespace ftnoc
