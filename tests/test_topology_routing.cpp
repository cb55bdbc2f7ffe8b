// Unit tests for mesh/torus topology and the DT (XY) / AD (minimal
// adaptive) routing functions.

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/topology.hpp"
#include "noc/routing.hpp"

namespace ftnoc {
namespace {

TEST(Topology, CoordinateRoundTrip) {
  Topology t(8, 8, false);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.node_at(t.coord_of(n)), n);
  }
}

TEST(Topology, MeshEdgeHasNoNeighbor) {
  Topology t(4, 4, false);
  EXPECT_FALSE(t.neighbor(0, Direction::kNorth).has_value());
  EXPECT_FALSE(t.neighbor(0, Direction::kWest).has_value());
  EXPECT_FALSE(t.neighbor(15, Direction::kSouth).has_value());
  EXPECT_FALSE(t.neighbor(15, Direction::kEast).has_value());
}

TEST(Topology, InteriorNeighbors) {
  Topology t(4, 4, false);
  // Node 5 = (1,1).
  EXPECT_EQ(t.neighbor(5, Direction::kNorth), NodeId{1});
  EXPECT_EQ(t.neighbor(5, Direction::kSouth), NodeId{9});
  EXPECT_EQ(t.neighbor(5, Direction::kEast), NodeId{6});
  EXPECT_EQ(t.neighbor(5, Direction::kWest), NodeId{4});
}

TEST(Topology, LocalNeverHasNeighbor) {
  Topology t(4, 4, false);
  EXPECT_FALSE(t.neighbor(5, Direction::kLocal).has_value());
}

TEST(Topology, TorusWrapsAround) {
  Topology t(4, 4, true);
  EXPECT_EQ(t.neighbor(0, Direction::kWest), NodeId{3});
  EXPECT_EQ(t.neighbor(0, Direction::kNorth), NodeId{12});
  EXPECT_EQ(t.neighbor(3, Direction::kEast), NodeId{0});
}

TEST(Topology, NeighborIsSymmetric) {
  Topology t(5, 3, false);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (int d = 0; d < 4; ++d) {
      const auto dir = static_cast<Direction>(d);
      if (auto nb = t.neighbor(n, dir)) {
        EXPECT_EQ(t.neighbor(*nb, opposite(dir)), n);
      }
    }
  }
}

// The neighbour table built at construction equals the closed form: step
// one coordinate, wrap on a torus, nothing past a mesh edge, nothing for
// the local port. Degenerate 1-wide fabrics included (a 1-wide torus
// wraps onto itself).
TEST(Topology, NeighborTableMatchesClosedForm) {
  const std::vector<std::pair<int, int>> sizes = {
      {1, 2}, {2, 1}, {3, 5}, {8, 8}, {32, 32}};
  // Indexed by Direction: N, E, S, W. Row 0 is the top (north is -y).
  constexpr int kDx[4] = {0, 1, 0, -1};
  constexpr int kDy[4] = {-1, 0, 1, 0};
  for (const auto& [w, h] : sizes) {
    for (const bool torus : {false, true}) {
      const Topology t(w, h, torus);
      for (NodeId n = 0; n < t.num_nodes(); ++n) {
        const int x = n % w;
        const int y = n / w;
        for (int d = 0; d < 4; ++d) {
          const int nx = x + kDx[d];
          const int ny = y + kDy[d];
          std::optional<NodeId> want;
          if (torus) {
            want = static_cast<NodeId>(((ny + h) % h) * w + (nx + w) % w);
          } else if (nx >= 0 && nx < w && ny >= 0 && ny < h) {
            want = static_cast<NodeId>(ny * w + nx);
          }
          EXPECT_EQ(t.neighbor(n, static_cast<Direction>(d)), want)
              << w << "x" << h << (torus ? " torus" : " mesh") << " node "
              << n << " dir " << d;
        }
        EXPECT_EQ(t.neighbor(n, Direction::kLocal), std::nullopt);
      }
    }
  }
}

TEST(Routing, XyReturnsSinglePort) {
  Topology t(8, 8, false);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const PortMask m = route(t, RoutingAlgorithm::kXY, a, b);
      EXPECT_EQ(mask_size(m), 1);
    }
  }
}

TEST(Routing, XyGoesXFirst) {
  Topology t(8, 8, false);
  // From (0,0) to (3,3): east until x matches, then south.
  EXPECT_EQ(route(t, RoutingAlgorithm::kXY, 0, 27),
            port_bit(Direction::kEast));
  // From (3,0) to (3,3): x aligned, go south.
  EXPECT_EQ(route(t, RoutingAlgorithm::kXY, 3, 27),
            port_bit(Direction::kSouth));
}

TEST(Routing, LocalPortAtDestination) {
  Topology t(8, 8, false);
  EXPECT_EQ(route(t, RoutingAlgorithm::kXY, 10, 10),
            port_bit(Direction::kLocal));
  EXPECT_EQ(route(t, RoutingAlgorithm::kMinimalAdaptive, 10, 10),
            port_bit(Direction::kLocal));
}

TEST(Routing, AdaptiveReturnsAllProductiveDirections) {
  Topology t(8, 8, false);
  // From (0,0) to (3,3): east and south are both productive.
  const PortMask m = route(t, RoutingAlgorithm::kMinimalAdaptive, 0, 27);
  EXPECT_TRUE(mask_has(m, static_cast<PortId>(Direction::kEast)));
  EXPECT_TRUE(mask_has(m, static_cast<PortId>(Direction::kSouth)));
  EXPECT_EQ(mask_size(m), 2);
}

TEST(Routing, AdaptiveSingleDimensionGivesOnePort) {
  Topology t(8, 8, false);
  const PortMask m = route(t, RoutingAlgorithm::kMinimalAdaptive, 0, 7);
  EXPECT_EQ(m, port_bit(Direction::kEast));
}

// Property: following XY from any source always reaches the destination in
// exactly the Manhattan distance.
TEST(Routing, XyAlwaysReachesDestinationMinimally) {
  Topology t(6, 5, false);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      NodeId cur = a;
      int hops = 0;
      while (cur != b) {
        const PortMask m = route(t, RoutingAlgorithm::kXY, cur, b);
        const PortId p = first_port(m);
        ASSERT_NE(p, static_cast<PortId>(Direction::kLocal));
        auto nb = t.neighbor(cur, static_cast<Direction>(p));
        ASSERT_TRUE(nb.has_value());
        cur = *nb;
        ASSERT_LE(++hops, 64);
      }
      const Coord ca = t.coord_of(a);
      const Coord cb = t.coord_of(b);
      EXPECT_EQ(hops, std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y));
    }
  }
}

// Property: every adaptive candidate is productive (reduces distance by 1).
TEST(Routing, AdaptiveCandidatesAreAlwaysProductive) {
  Topology t(6, 6, false);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      if (a == b) continue;
      const Coord ca = t.coord_of(a);
      const Coord cb = t.coord_of(b);
      const int dist = std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
      const PortMask m = route(t, RoutingAlgorithm::kMinimalAdaptive, a, b);
      for (PortId p = 0; p < 4; ++p) {
        if (!mask_has(m, p)) continue;
        auto nb = t.neighbor(a, static_cast<Direction>(p));
        ASSERT_TRUE(nb.has_value());
        const Coord cn = t.coord_of(*nb);
        EXPECT_EQ(std::abs(cn.x - cb.x) + std::abs(cn.y - cb.y), dist - 1);
      }
    }
  }
}

TEST(Routing, AverageMinHops8x8) {
  Topology t(8, 8, false);
  // Closed form for a k x k mesh over distinct pairs:
  // E[|dx|+|dy|] = 2 * (k^2-1)/(3k) * k^2/(k^2-1) ... just sanity-band it.
  const double h = average_min_hops(t);
  EXPECT_GT(h, 5.2);
  EXPECT_LT(h, 5.5);
}

TEST(Routing, MaskHelpers) {
  EXPECT_EQ(mask_size(0), 0);
  EXPECT_EQ(first_port(0), kInvalidPort);
  const PortMask m = port_bit(Direction::kEast) | port_bit(Direction::kWest);
  EXPECT_EQ(mask_size(m), 2);
  EXPECT_EQ(first_port(m), static_cast<PortId>(Direction::kEast));
}

}  // namespace
}  // namespace ftnoc
