#include "noc/traffic.hpp"

#include "common/check.hpp"

namespace ftnoc {

NodeId pick_destination(const Topology& topo, TrafficPattern p, NodeId src,
                        Rng& rng) {
  const int n = topo.num_nodes();
  NodeId dest = src;
  switch (p) {
    case TrafficPattern::kUniformRandom: {
      // Uniform over all nodes except the source.
      const auto r = static_cast<NodeId>(rng.next_below(
          static_cast<std::uint64_t>(n - 1)));
      dest = r < src ? r : static_cast<NodeId>(r + 1);
      return dest;
    }
    case TrafficPattern::kBitComplement: {
      // Complement within the index space [0, n): requires n a power of 2
      // (true for the paper's 8x8 = 64 nodes); otherwise reduce mod n.
      dest = static_cast<NodeId>((~static_cast<unsigned>(src)) &
                                 static_cast<unsigned>(n - 1));
      if (dest >= n) dest = static_cast<NodeId>(dest % n);
      break;
    }
    case TrafficPattern::kTornado: {
      // Half-way around each dimension, minus one (Dally & Towles):
      // dx = ceil(X/2) - 1.
      const Coord c = topo.coord_of(src);
      Coord t = c;
      t.x = (c.x + (topo.width() + 1) / 2 - 1) % topo.width();
      t.y = (c.y + (topo.height() + 1) / 2 - 1) % topo.height();
      dest = topo.node_at(t);
      break;
    }
  }
  if (dest == src) dest = static_cast<NodeId>((src + 1) % n);
  return dest;
}

TrafficSource::TrafficSource(const Topology& topo, NodeId self,
                             TrafficPattern pattern, double injection_rate,
                             int packet_length, Rng rng)
    : topo_(topo),
      self_(self),
      pattern_(pattern),
      generate_prob_(injection_rate / packet_length),
      packet_length_(packet_length),
      rng_(rng) {
  FTNOC_CHECK(packet_length >= 1);
  FTNOC_CHECK(generate_prob_ <= 1.0);
}

std::optional<PacketId> TrafficSource::maybe_generate(
    PacketId& next_packet_id, PacketTable& packets, Cycle now) {
  if (!rng_.bernoulli(generate_prob_)) return std::nullopt;
  const NodeId dest = pick_destination(topo_, pattern_, self_, rng_);
  const PacketId pid = next_packet_id++;
  packets.open(pid, dest, static_cast<std::uint32_t>(packet_length_), now,
               [this](std::uint32_t) { return rng_.next_u64(); });
  return pid;
}

}  // namespace ftnoc
