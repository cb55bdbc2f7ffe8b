#pragma once
// 2-D mesh / torus topology: node numbering, coordinates and neighbour
// resolution. The paper evaluates an 8x8 MESH (§2.2); the torus option
// exists because the tornado pattern (borrowed from torus studies) and the
// large-fabric presets benefit from it.
//
// The topology also carries the permanent-fault state of the fabric: a
// per-port dead-link mask (static dead_links plus mid-run storm kills) and
// BFS distance rows over the live links that route() consults to steer
// around faults, stored only for the destinations a fault detours.
// Fault-free topologies keep the mask empty and pay nothing. It depends
// only on common/, so SimConfig::validate() checks a fault set against the
// same neighbour table the network builds.

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// it, which guarantees delivery between connected pairs. The closed
  /// form unless a fault detours `to` (see detour_row()).
  std::uint16_t fault_distance(NodeId from, NodeId to) const {
    FTNOC_DCHECK(from < num_nodes() && to < num_nodes());
    if (has_faults_) {
      if (const std::uint16_t* row = detour_row(to)) return row[from];
    }
    return closed_form_distance(from, to);
  }
  static constexpr std::uint16_t kUnreachable = 0xFFFF;
  /// Hop count over every physical link: Manhattan, or the shorter way
  /// around each ring of a torus. The live-link distance on a fault-free
  /// fabric, and a lower bound on it once links die.
  std::uint16_t closed_form_distance(NodeId from, NodeId to) const;

  /// Destinations whose distance row is stored because a fault detours
  /// them (DESIGN.md §4.9). Counts only rows built so far: a row is
  /// checked on the first fault_distance() query toward its destination.
  std::size_t stored_rows() const;

  /// Route-table version: bumped by every fail_link().
  /// Routers compare it against the epoch their in-flight routing
  /// decisions were made under and re-home kVaWait candidate sets when it
  /// moves (DESIGN.md §4.12) instead of steering packets into a region
  /// that just went dark.
  std::uint32_t route_epoch() const { return epoch_; }

 private:
  /// The stored live-link row of `dest`, or null when every entry equals
  /// the closed form. Checks the destination again once per route epoch.
  const std::uint16_t* detour_row(NodeId dest) const {
    const DestRow& r = dest_rows_[dest];
    if (r.stamp != epoch_) refresh_row(dest);
    return r.row.get();
  }
  /// Runs the BFS of `dest` over live links and brings dest_rows_[dest]
  /// up to the current epoch. Only rows that routing consults are built,
  /// at most once per epoch each, so a kill costs O(1). Row values are
  /// queue-order independent (BFS levels), which the fault_degradation
  /// golden digest pins.
  void refresh_row(NodeId dest) const;
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
  /// Per-destination distance state, sized on the first fault.
  /// Mutable: rows are a cache of pure-function values.
  struct DestRow {
    /// Epoch the row was last checked at; 0 = never (epoch_ >= 1 once any
    /// fault exists, so a zero stamp is always stale).
    std::uint32_t stamp = 0;
    /// The live-link BFS row when it differs from the closed form
    /// somewhere, else null. Links only die and distances only grow, so a
    /// detoured destination stays detoured: its row is rebuilt in place
    /// on a new epoch and never freed, and each row is its own block, so
    /// storing one never moves another.
    std::unique_ptr<std::uint16_t[]> row;
  };
  mutable std::vector<DestRow> dest_rows_;
  /// BFS scratch reused by every refresh_row(): the row of a destination
  /// not yet known to be detoured, and the node queue.
  mutable std::vector<std::uint16_t> scratch_row_;
  mutable std::vector<NodeId> bfs_queue_;
};

}  // namespace ftnoc
