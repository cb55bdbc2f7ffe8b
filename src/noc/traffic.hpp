#pragma once
// Synthetic traffic generation (paper §2.2): uniform Bernoulli injection at
// a configured flit rate, with three destination distributions — normal
// random (NR), bit-complement (BC) and tornado (TN).

#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "common/types.hpp"
#include "core/flit.hpp"

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

  /// Returns the flits of a newly generated packet, or nullopt this cycle.
  /// `next_packet_id` is advanced on generation.
  std::optional<std::vector<Flit>> maybe_generate(PacketId& next_packet_id);

  /// Builds one packet, its codewords encoded from payloads drawn from
  /// `payload_rng` (or, when null, derived from the packet id and flit
  /// index — tests and trace replay). The network's PacketTable keeps the
  /// payloads and the birth cycle.
  static std::vector<Flit> build_packet(PacketId pid, NodeId src, NodeId dest,
                                        int packet_length, Rng* payload_rng);

 private:
  const Topology& topo_;
  NodeId self_;
  TrafficPattern pattern_;
  double generate_prob_;
  int packet_length_;
  Rng rng_;
};

}  // namespace ftnoc
