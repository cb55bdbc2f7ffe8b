#pragma once
// Synthetic traffic generation (paper §2.2): uniform Bernoulli injection at
// a configured flit rate, with three destination distributions — normal
// random (NR), bit-complement (BC) and tornado (TN).

#include <optional>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "common/types.hpp"
#include "noc/packet_table.hpp"

namespace ftnoc {

/// Picks the destination for a packet from `src` under pattern `p`.
/// Self-addressed results (possible for BC/TN at fixed points) are remapped
/// to the next node so every packet actually enters the network.
NodeId pick_destination(const Topology& topo, TrafficPattern p, NodeId src,
                        Rng& rng);

/// Per-node packet source. Each cycle it flips a Bernoulli coin with
/// p = injection_rate / packet_length so the long-run offered load equals
/// `injection_rate` flits/node/cycle.
class TrafficSource {
 public:
  TrafficSource(const Topology& topo, NodeId self, TrafficPattern pattern,
                double injection_rate, int packet_length, Rng rng);

  /// Returns the id of a packet generated this cycle, or nullopt. A new
  /// packet's record opens in `packets`, born at `now`: the destination
  /// and then one payload per flit are drawn from this source's RNG.
  /// `next_packet_id` is advanced on generation.
  std::optional<PacketId> maybe_generate(PacketId& next_packet_id,
                                         PacketTable& packets, Cycle now);

 private:
  const Topology& topo_;
  NodeId self_;
  TrafficPattern pattern_;
  double generate_prob_;
  int packet_length_;
  Rng rng_;
};

}  // namespace ftnoc
