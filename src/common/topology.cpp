#include "common/topology.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"

namespace ftnoc {

Topology::Topology(int width, int height, bool torus)
    : width_(width), height_(height), torus_(torus) {
  FTNOC_CHECK(width >= 1 && height >= 1);
  FTNOC_CHECK(width * height >= 2);
  nbr_.assign(static_cast<std::size_t>(num_nodes()) * 4, kInvalidNode);
  for (int n = 0; n < num_nodes(); ++n) {
    for (int d = 0; d < 4; ++d) {
      Coord c = coord_of(static_cast<NodeId>(n));
      switch (static_cast<Direction>(d)) {
        // Row 0 is the top of the mesh: north decreases y.
        case Direction::kNorth: c.y -= 1; break;
        case Direction::kSouth: c.y += 1; break;
        case Direction::kEast: c.x += 1; break;
        case Direction::kWest: c.x -= 1; break;
        case Direction::kLocal: break;
      }
      if (!contains(c)) {
        if (!torus_) continue;
        c.x = (c.x + width_) % width_;
        c.y = (c.y + height_) % height_;
      }
      nbr_[static_cast<std::size_t>(n) * 4 + static_cast<std::size_t>(d)] =
          node_at(c);
    }
  }
}

Coord Topology::coord_of(NodeId n) const {
  FTNOC_DCHECK(n < num_nodes());
  return Coord{static_cast<int>(n) % width_, static_cast<int>(n) / width_};
}

NodeId Topology::node_at(Coord c) const {
  FTNOC_DCHECK(contains(c));
  return static_cast<NodeId>(c.y * width_ + c.x);
}

bool Topology::contains(Coord c) const {
  return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
}

bool Topology::dead_port(NodeId n, Direction d) const {
  if (dead_ports_.empty()) return false;
  return (dead_ports_[n] >> static_cast<int>(d)) & 1;
}

bool Topology::link_alive(NodeId n, Direction d) const {
  if (d == Direction::kLocal || !has_neighbor(n, d)) return false;
  return !dead_port(n, d);
}

void Topology::fail_link(NodeId n, Direction d) {
  FTNOC_CHECK(n < num_nodes() && d != Direction::kLocal);
  if (dead_ports_.empty()) {
    const auto n = static_cast<std::size_t>(num_nodes());
    dead_ports_.assign(n, 0);
    dest_rows_.resize(n);
    scratch_row_.resize(n);
    bfs_queue_.resize(n);
  }
  dead_ports_[n] |= static_cast<std::uint8_t>(1u << static_cast<int>(d));
  if (const auto nb = neighbor(n, d)) {
    dead_ports_[*nb] |=
        static_cast<std::uint8_t>(1u << static_cast<int>(opposite(d)));
  }
  has_faults_ = true;
  ++epoch_;
}

void Topology::refresh_row(NodeId dest) const {
  const std::size_t n = static_cast<std::size_t>(num_nodes());
  DestRow& r = dest_rows_[dest];
  std::uint16_t* const row = r.row ? r.row.get() : scratch_row_.data();
  std::fill(row, row + n, kUnreachable);
  row[dest] = 0;
  bfs_queue_[0] = dest;
  std::size_t tail = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId cur = bfs_queue_[head];
    for (int p = 0; p < 4; ++p) {
      const auto d = static_cast<Direction>(p);
      if (!link_alive(cur, d)) continue;
      const NodeId nb = *neighbor(cur, d);
      if (row[nb] != kUnreachable) continue;
      row[nb] = static_cast<std::uint16_t>(row[cur] + 1);
      bfs_queue_[tail++] = nb;
    }
  }
  r.stamp = epoch_;
  if (r.row) return;
  for (std::size_t cur = 0; cur < n; ++cur) {
    if (row[cur] != closed_form_distance(static_cast<NodeId>(cur), dest)) {
      r.row = std::make_unique_for_overwrite<std::uint16_t[]>(n);
      std::copy(row, row + n, r.row.get());
      return;
    }
  }
}

std::size_t Topology::stored_rows() const {
  return static_cast<std::size_t>(
      std::count_if(dest_rows_.begin(), dest_rows_.end(),
                    [](const DestRow& r) { return r.row != nullptr; }));
}

std::uint16_t Topology::closed_form_distance(NodeId from, NodeId to) const {
  const Coord a = coord_of(from);
  const Coord b = coord_of(to);
  int dx = b.x - a.x;
  int dy = b.y - a.y;
  if (dx < 0) dx = -dx;
  if (dy < 0) dy = -dy;
  if (torus_) {
    if (width_ - dx < dx) dx = width_ - dx;
    if (height_ - dy < dy) dy = height_ - dy;
  }
  return static_cast<std::uint16_t>(dx + dy);
}

bool Topology::reaches_all(NodeId skip_n, Direction skip_d) const {
  const auto skip_nb = neighbor(skip_n, skip_d);
  const int total = num_nodes();
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(total), 0);
  std::vector<NodeId> queue = {0};
  queue.reserve(static_cast<std::size_t>(total));
  seen[0] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId cur = queue[head];
    for (int p = 0; p < 4; ++p) {
      const auto dir = static_cast<Direction>(p);
      if (!link_alive(cur, dir)) continue;
      if (skip_nb && ((cur == skip_n && dir == skip_d) ||
                      (cur == *skip_nb && dir == opposite(skip_d)))) {
        continue;  // The link under consideration.
      }
      const NodeId next = *neighbor(cur, dir);
      if (seen[next]) continue;
      seen[next] = 1;
      queue.push_back(next);
    }
  }
  return queue.size() == static_cast<std::size_t>(total);
}

bool Topology::connected() const {
  return reaches_all(0, Direction::kLocal);
}

bool Topology::would_partition(NodeId n, Direction d) const {
  // Killing a nonexistent link changes nothing.
  return has_neighbor(n, d) && !reaches_all(n, d);
}

}  // namespace ftnoc
