#pragma once
// 2-D mesh / torus topology: node numbering, coordinates and neighbour
// resolution. The paper evaluates an 8x8 MESH (§2.2); the torus option
// exists because the tornado pattern (borrowed from torus studies) and the
// large-fabric presets benefit from it.
//
// The topology also carries the permanent-fault state of the fabric: a
// per-port dead-link mask (static dead_links plus mid-run storm kills) and
// a BFS distance table over the live links that route() consults to steer
// around faults. Fault-free topologies keep the mask empty and pay
// nothing. It depends only on common/, so SimConfig::validate() checks a
// fault set against the same neighbour table the network builds.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ftnoc {

class Topology {
 public:
  Topology(int width, int height, bool torus);

  int width() const { return width_; }
  int height() const { return height_; }
  bool torus() const { return torus_; }
  int num_nodes() const { return width_ * height_; }

  Coord coord_of(NodeId n) const;
  NodeId node_at(Coord c) const;
  bool contains(Coord c) const;

  /// The neighbour reached by leaving `n` through `d`, or nullopt at a mesh
  /// edge. kLocal never has a neighbour. Ignores the fault mask (the
  /// physical channel still exists; it just must not be used). A lookup in
  /// the table the constructor builds: VA, the deadlock waiter scan and the
  /// fault-aware routing paths call this several times per header.
  std::optional<NodeId> neighbor(NodeId n, Direction d) const {
    FTNOC_DCHECK(n < num_nodes());
    if (d == Direction::kLocal) return std::nullopt;
    const NodeId nb = nbr_[static_cast<std::size_t>(n) * 4 +
                           static_cast<std::size_t>(d)];
    if (nb == kInvalidNode) return std::nullopt;
    return nb;
  }

  /// True if `d` is a usable network direction at node `n`.
  bool has_neighbor(NodeId n, Direction d) const {
    return neighbor(n, d).has_value();
  }

  // --- Permanent-fault mask -----------------------------------------------
  /// Marks both directions of the physical channel leaving `n` through `d`
  /// as hard-dead and advances the route epoch; distance rows rebuild
  /// lazily on the next query that touches them.
  void fail_link(NodeId n, Direction d);
  /// Any link faulted so far (static or storm-killed).
  bool has_faults() const { return has_faults_; }
  /// True if `d` leads to an existing neighbour over a non-faulted link.
  bool link_alive(NodeId n, Direction d) const;
  /// True if every router reaches every other over live links.
  bool connected() const;
  /// Would additionally failing this link disconnect any pair of routers?
  /// The network consults this before accepting a storm kill so graceful
  /// degradation never partitions the fabric.
  bool would_partition(NodeId n, Direction d) const;

  /// Minimum hop count from `from` to `to` over live links only, or
  /// kUnreachable. Exact (BFS) — route() picks ports that strictly decrease
  /// it, which guarantees delivery between connected pairs.
  std::uint16_t fault_distance(NodeId from, NodeId to) const;
  static constexpr std::uint16_t kUnreachable = 0xFFFF;

  /// Route-table version: bumped by every fail_link().
  /// Routers compare it against the epoch their in-flight routing
  /// decisions were made under and re-home kVaWait candidate sets when it
  /// moves (DESIGN.md §4.12) instead of steering packets into a region
  /// that just went dark.
  std::uint32_t route_epoch() const { return epoch_; }

 private:
  /// Lazily (re)builds the single-destination BFS row for `dest` if its
  /// stamp is older than the current epoch. Replaces the all-pairs rebuild
  /// that used to run on *every* kill: a fault storm of S kills on an
  /// N-node mesh paid O(S * N^2) on the hot path; now each kill is O(1) and
  /// only rows that routing actually consults are recomputed, at most once
  /// per epoch each. Row values are identical to the eager build (BFS
  /// levels are queue-order independent), which the fault_degradation
  /// golden digest pins.
  void ensure_row(NodeId dest) const;
  bool dead_port(NodeId n, Direction d) const;
  /// BFS from node 0 over live links, additionally treating the link
  /// leaving `skip_n` through `skip_d` as dead (kLocal skips nothing).
  /// True if it reaches every node.
  bool reaches_all(NodeId skip_n, Direction skip_d) const;

  int width_;
  int height_;
  bool torus_;
  /// nbr_[n * 4 + d]: the neighbour of `n` through link direction `d`, or
  /// kInvalidNode at a mesh edge. Geometry never changes after
  /// construction; link deaths live in the fault mask below.
  std::vector<NodeId> nbr_;
  bool has_faults_ = false;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint8_t> dead_ports_;  ///< Per node, bit per direction.
  /// dist_[dest * num_nodes + cur]; allocated on the first fault, each row
  /// filled on demand. Mutable: rows are a cache of pure-function values.
  mutable std::vector<std::uint16_t> dist_;
  /// Epoch each dist_ row was built at; 0 = never (epoch_ >= 1 once any
  /// fault exists, so a zero stamp is always stale).
  mutable std::vector<std::uint32_t> row_stamp_;
};

}  // namespace ftnoc
