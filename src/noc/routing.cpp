#include "noc/routing.hpp"

#include <bit>
#include <cstdlib>

#include "common/check.hpp"

namespace ftnoc {
namespace {

// Signed displacement from `from` to `to` along one dimension of length
// `extent`, choosing the shorter way around on a torus.
int displacement(int from, int to, int extent, bool torus) {
  int d = to - from;
  if (torus) {
    if (d > extent / 2) d -= extent;
    if (d < -extent / 2) d += extent;
  }
  return d;
}

PortMask productive_ports(const Topology& topo, NodeId current, NodeId dest) {
  const Coord c = topo.coord_of(current);
  const Coord t = topo.coord_of(dest);
  const int dx = displacement(c.x, t.x, topo.width(), topo.torus());
  const int dy = displacement(c.y, t.y, topo.height(), topo.torus());
  PortMask m = 0;
  if (dx > 0) m |= port_bit(Direction::kEast);
  if (dx < 0) m |= port_bit(Direction::kWest);
  // Row 0 is the top of the mesh: increasing y moves south.
  if (dy > 0) m |= port_bit(Direction::kSouth);
  if (dy < 0) m |= port_bit(Direction::kNorth);
  return m;
}

PortMask xy_port(const Topology& topo, NodeId current, NodeId dest) {
  const Coord c = topo.coord_of(current);
  const Coord t = topo.coord_of(dest);
  const int dx = displacement(c.x, t.x, topo.width(), topo.torus());
  if (dx > 0) return port_bit(Direction::kEast);
  if (dx < 0) return port_bit(Direction::kWest);
  const int dy = displacement(c.y, t.y, topo.height(), topo.torus());
  if (dy > 0) return port_bit(Direction::kSouth);
  if (dy < 0) return port_bit(Direction::kNorth);
  return port_bit(Direction::kLocal);
}

// Fault-aware mode (DESIGN.md §4.9): offer every live port whose neighbour
// is strictly closer to `dest` in the topology's live-link BFS metric.
// Strict descent makes delivery inevitable for connected pairs (the
// distance is a finite non-negative integer that shrinks every hop) and
// rules out livelock without any history in the packet. Deterministic XY
// degrades to the lowest-numbered descending port so it stays a function
// of (current, dest).
PortMask fault_aware_ports(const Topology& topo, RoutingAlgorithm algo,
                           NodeId current, NodeId dest) {
  const std::uint16_t here = topo.fault_distance(current, dest);
  if (here == Topology::kUnreachable) return 0;
  PortMask m = 0;
  for (PortId p = 0; p < 4; ++p) {
    const auto d = static_cast<Direction>(p);
    if (!topo.link_alive(current, d)) continue;
    if (topo.fault_distance(*topo.neighbor(current, d), dest) < here) {
      m |= port_bit(p);
    }
  }
  FTNOC_DCHECK(m != 0);
  if (algo == RoutingAlgorithm::kXY) return port_bit(first_port(m));
  return m;
}

}  // namespace

int mask_size(PortMask m) {
  return std::popcount(static_cast<unsigned>(m));
}

PortId first_port(PortMask m) {
  if (m == 0) return kInvalidPort;
  return static_cast<PortId>(std::countr_zero(static_cast<unsigned>(m)));
}

PortMask route(const Topology& topo, RoutingAlgorithm algo, NodeId current,
               NodeId dest) {
  FTNOC_DCHECK(current < topo.num_nodes() && dest < topo.num_nodes());
  if (current == dest) return port_bit(Direction::kLocal);
  // A faulted fabric routes by live-link BFS distance for every algorithm;
  // an unreachable destination would return the empty mask. Fault-free
  // fabrics keep the closed forms below bit-for-bit (the golden digests
  // pin this).
  if (topo.has_faults()) {
    return fault_aware_ports(topo, algo, current, dest);
  }
  return route_fault_free(topo, algo, current, dest);
}

PortMask fault_escape_ports(const Topology& topo, NodeId current,
                            NodeId dest) {
  FTNOC_DCHECK(current < topo.num_nodes() && dest < topo.num_nodes());
  std::uint16_t best = Topology::kUnreachable;
  PortMask m = 0;
  for (PortId p = 0; p < 4; ++p) {
    const auto d = static_cast<Direction>(p);
    if (!topo.link_alive(current, d)) continue;
    const std::uint16_t nd = topo.fault_distance(*topo.neighbor(current, d),
                                                 dest);
    if (nd == Topology::kUnreachable) continue;
    if (nd < best) {
      best = nd;
      m = port_bit(p);
    } else if (nd == best) {
      m |= port_bit(p);
    }
  }
  return m;
}

PortMask route_fault_free(const Topology& topo, RoutingAlgorithm algo,
                          NodeId current, NodeId dest) {
  FTNOC_DCHECK(current < topo.num_nodes() && dest < topo.num_nodes());
  if (current == dest) return port_bit(Direction::kLocal);
  switch (algo) {
    case RoutingAlgorithm::kXY:
      return xy_port(topo, current, dest);
    case RoutingAlgorithm::kMinimalAdaptive:
    case RoutingAlgorithm::kAdaptiveEscape: {
      // The escape scheme routes minimally-adaptively too; the escape-VC
      // restriction (VC 0 only via the XY direction) is a VA policy, not a
      // routing-function property.
      const PortMask m = productive_ports(topo, current, dest);
      FTNOC_DCHECK(m != 0);
      return m;
    }
  }
  return 0;
}

double average_min_hops(const Topology& topo) {
  const int n = topo.num_nodes();
  double total = 0.0;
  std::uint64_t pairs = 0;
  for (NodeId a = 0; a < n; ++a) {
    const Coord ca = topo.coord_of(a);
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      const Coord cb = topo.coord_of(b);
      total += std::abs(displacement(ca.x, cb.x, topo.width(), topo.torus()));
      total +=
          std::abs(displacement(ca.y, cb.y, topo.height(), topo.torus()));
      ++pairs;
    }
  }
  return pairs ? total / static_cast<double>(pairs) : 0.0;
}

}  // namespace ftnoc
