#pragma once
// Routing functions. The paper evaluates a deterministic algorithm ("DT",
// dimension-ordered XY — deadlock-free on a mesh) and an adaptive one
// ("AD", minimal fully-adaptive — higher buffer utilization, Figure 8/9,
// and deadlock-prone, which is what the recovery scheme of §3.2 is for).
//
// A routing function returns a *set* of permitted output ports as a bitmask
// (bit i = port i); the paper's AC unit consumes exactly this valid-set
// representation (Figure 12: "Routing Function returns all VCs of a single
// PC (R => P)").

#include <cstdint>

#include "common/config.hpp"
#include "common/topology.hpp"
#include "common/types.hpp"

namespace ftnoc {

using PortMask = std::uint8_t;

inline constexpr PortMask port_bit(Direction d) {
  return static_cast<PortMask>(1u << static_cast<int>(d));
}
inline constexpr PortMask port_bit(PortId p) {
  return static_cast<PortMask>(1u << p);
}
inline constexpr bool mask_has(PortMask m, PortId p) {
  return (m & port_bit(p)) != 0;
}

/// Number of ports set in the mask.
int mask_size(PortMask m);

/// Lowest-numbered port in the mask; kInvalidPort if empty.
PortId first_port(PortMask m);

/// Computes the permitted output ports for a packet at `current` headed to
/// `dest`. Returns the Local port alone when current == dest. On a
/// fault-free topology the result is always non-empty (the closed-form XY /
/// minimal-adaptive sets). When the topology carries permanent faults,
/// every algorithm switches to fault-aware mode: only live ports whose
/// neighbour is strictly closer to `dest` in live-link BFS distance are
/// offered (minimal-adaptive around the faults, guaranteed delivery for
/// connected pairs), and the mask is empty iff `dest` is unreachable, which
/// the connected live fabric rules out (routers check it).
PortMask route(const Topology& topo, RoutingAlgorithm algo, NodeId current,
               NodeId dest);

/// The closed-form (fault-blind) port set: what route() would return if the
/// topology carried no permanent faults. Routers compare this against the
/// fault-aware mask to count detours (hard_fault_reroutes), and the fuzzer's
/// planted "route_into_dead_link" mutation substitutes it for route().
PortMask route_fault_free(const Topology& topo, RoutingAlgorithm algo,
                          NodeId current, NodeId dest);

/// Average minimal hop count between distinct node pairs (analysis helper
/// used by tests).
double average_min_hops(const Topology& topo);

}  // namespace ftnoc
