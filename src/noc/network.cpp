#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"
#include "noc/digest.hpp"
#include "noc/reference_router.hpp"
#include "noc/workload.hpp"

namespace ftnoc {
namespace {
constexpr PortId kLocalPort = static_cast<PortId>(Direction::kLocal);

void mix_wire(digest::Fnv& h, const Wire& w) {
  h.mix(w.flit.peek() != nullptr);
  if (w.flit.peek()) h.mix_flit(*w.flit.peek());
  const auto credits = w.credit.peek();
  h.mix(credits.size());
  for (const Credit& c : credits) h.mix(static_cast<std::uint64_t>(c.vc));
  h.mix(w.nack.peek() != nullptr);
  if (w.nack.peek()) h.mix(static_cast<std::uint64_t>(w.nack.peek()->vc));
  h.mix(w.probe.peek() != nullptr);
  if (w.probe.peek()) h.mix_probe(*w.probe.peek());
  h.mix(w.activation.peek() != nullptr);
  if (w.activation.peek()) h.mix_activation(*w.activation.peek());
}

// Base of the PE's positional pending-queue fold and its inverse mod 2^64.
// Every odd base is invertible; each Newton step doubles the correct low
// bits, from the 3 that any odd b gets right as its own inverse.
constexpr std::uint64_t kFoldBase = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t b) {
  std::uint64_t x = b;
  for (int i = 0; i < 5; ++i) x *= 2 - b * x;
  return x;
}
constexpr std::uint64_t kFoldBaseInv = inverse_mod_2_64(kFoldBase);
static_assert(kFoldBase * kFoldBaseInv == 1);

// A queued packet's digest term.
std::uint64_t id_hash(PacketId pid) {
  digest::Fnv h;
  h.mix(pid);
  return h.value();
}
}  // namespace

// ---------------------------------------------------------------------------
// ProcessingElement
// ---------------------------------------------------------------------------

ProcessingElement::ProcessingElement(NodeId self, const SimConfig& cfg,
                                     const Topology& topo, Wire* to_router,
                                     StatsCollector* stats,
                                     PacketTable* packets, Rng rng)
    : self_(self),
      cfg_(cfg),
      wire_(to_router),
      stats_(stats),
      packets_(packets),
      num_lanes_(cfg.num_vcs) {
  if (cfg.injection_rate > 0.0) {
    source_.emplace(topo, self, cfg.pattern, cfg.injection_rate,
                    cfg.packet_length, rng);
  }
  for (auto& lane : lanes_) lane.credits = cfg.vc_buffer_depth;
}

void ProcessingElement::add_packet(PacketId pid) {
  if (stats_) stats_->on_packet_created();
  enqueue(pid, /*front=*/false);
}

void ProcessingElement::enqueue(PacketId pid, bool front) {
  const std::uint64_t h = id_hash(pid);
  if (front) {
    pending_fold_ = pending_fold_ * kFoldBase + h;
    pending_.push_front(pid);
  } else {
    pending_fold_ += h * pending_pow_;
    pending_.push_back(pid);
  }
  pending_pow_ *= kFoldBase;
}

void ProcessingElement::e2e_nack(PacketId pid) {
  if (packets_->find(pid) == nullptr) return;  // Already delivered (stale).
  // Retransmit ahead of new traffic. The packet's record, birth and
  // injection cycles included, stays open until a clean delivery, so the
  // measured latency includes the full recovery.
  if (stats_) stats_->count(Counter::e2e_retransmits);
  enqueue(pid, /*front=*/true);
}

bool ProcessingElement::step(Cycle now, PacketId& next_packet_id,
                             bool router_in_recovery) {
  // Credits returned by the router's local input buffers (the wire's
  // tick-time summary byte spares the vector touch on credit-free cycles).
  if (wire_->cur_mask & Wire::kCurCredit) {
    for (const Credit& c : wire_->credit.read()) {
      auto& lane = lanes_.at(c.vc);
      ++lane.credits;
      FTNOC_CHECK(lane.credits <= cfg_.vc_buffer_depth);
    }
  }

  // Generate new traffic.
  if (source_) {
    if (const auto pid = source_->maybe_generate(next_packet_id, *packets_,
                                                 now)) {
      add_packet(*pid);
    }
  }

  // Move waiting packets into free lanes (one wormhole per local VC) —
  // unless the router is recovering from a deadlock, which admits no new
  // packets.
  for (int v = 0; !router_in_recovery && v < num_lanes_; ++v) {
    if (pending_.empty()) break;
    auto& lane = lanes_[static_cast<std::size_t>(v)];
    if (lane.remaining() != 0) continue;
    lane.pid = pending_.front();
    pending_fold_ = (pending_fold_ - id_hash(lane.pid)) * kFoldBaseInv;
    pending_pow_ *= kFoldBaseInv;
    pending_.pop_front();
    const PacketTable::Record* rec = packets_->find(lane.pid);
    FTNOC_CHECK(rec != nullptr);
    lane.length = rec->length;
    lane.next = 0;
    lane_flits_ += static_cast<int>(lane.length);
  }

  // Send at most one flit per cycle over the PE-to-router channel. A PE
  // with no flit in any lane (most of them, on a lightly loaded fabric)
  // skips the lane scan.
  if (lane_flits_ == 0 || !wire_->flit.can_write()) return false;
  const int nv = num_lanes_;
  int v = send_rotation_;
  for (int off = 0; off < nv; ++off, v = (v + 1 == nv) ? 0 : v + 1) {
    auto& lane = lanes_[static_cast<std::size_t>(v)];
    if (lane.remaining() == 0 || lane.credits <= 0) continue;
    PacketTable::Record* rec = packets_->find(lane.pid);
    FTNOC_DCHECK(rec != nullptr);
    Flit f = packets_->flit(*rec, self_, static_cast<std::uint8_t>(lane.next));
    f.vc = static_cast<VcId>(v);
    --lane_flits_;
    --lane.credits;
    // Stamp the network-injection time on the packet's record the moment
    // its header enters the network (the wire delivers it next cycle, hence
    // now + 1 — which also keeps 0 available as the "not injected yet"
    // sentinel). An E2E retransmission keeps the first attempt's stamp.
    if (lane.next == 0 && rec->inject == 0) {
      packets_->update(*rec,
                       [&](PacketTable::Record& r) { r.inject = now + 1; });
    }
    wire_->write(f);
    if (++lane.next == lane.length) {
      lane = Lane{.credits = lane.credits};  // Packet fully sent.
    }
    send_rotation_ = (v + 1 == nv) ? 0 : v + 1;
    return true;
  }
  return false;
}

std::uint64_t ProcessingElement::state_digest() const {
  digest::Fnv h;
  h.mix(static_cast<std::uint64_t>(self_));
  h.mix(static_cast<std::uint64_t>(send_rotation_));
  h.mix(static_cast<std::uint64_t>(num_lanes_));
  for (int v = 0; v < num_lanes_; ++v) {
    const Lane& lane = lanes_[static_cast<std::size_t>(v)];
    h.mix(lane.pid);
    h.mix(static_cast<std::uint64_t>(lane.next) |
          static_cast<std::uint64_t>(lane.length) << 32);
    h.mix(static_cast<std::uint64_t>(lane.credits));
  }
  h.mix(pending_.size());
  h.mix(pending_fold_);
  return h.value();
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

Network::Network(const SimConfig& cfg)
    : cfg_(cfg),
      topo_(cfg.mesh_width, cfg.mesh_height, cfg.torus),
      root_rng_(cfg.seed),
      faults_(cfg.faults, Rng(cfg.seed ^ 0xFA017EC7ULL)) {
  if (auto err = cfg_.validate()) {
    FTNOC_ERROR("invalid SimConfig: " + *err);
    FTNOC_CHECK(false && "invalid SimConfig");
  }
  const int n = topo_.num_nodes();

  routers_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    if (cfg_.use_reference_router) {
      routers_.push_back(std::make_unique<ReferenceRouter>(
          i, cfg_, topo_, &faults_, &meter_, &stats_));
    } else {
      routers_.push_back(std::make_unique<Router>(i, cfg_, topo_, &faults_,
                                                  &meter_, &stats_));
    }
  }

  if (cfg_.check_invariants) {
    monitor_ = std::make_unique<InvariantMonitor>(cfg_);
    for (auto& r : routers_) r->set_monitor(monitor_.get());
  }

  // Wires. wires_[node*4 + d] is the directed wire leaving `node` through
  // direction d (flit/probe/activation forward; credit/NACK back), unused
  // at mesh edges; wires_[n*4 + i] is node i's injection wire.
  wires_.resize(static_cast<std::size_t>(n) * 5);
  link_wires_.assign(static_cast<std::size_t>(n) * 4, nullptr);
  for (NodeId i = 0; i < n; ++i) {
    for (int d = 0; d < 4; ++d) {
      if (topo_.has_neighbor(i, static_cast<Direction>(d))) {
        const std::size_t wid = static_cast<std::size_t>(i) * 4 + d;
        link_wires_[wid] = &wires_[wid];
      }
    }
  }

  for (NodeId i = 0; i < n; ++i) {
    for (int d = 0; d < 4; ++d) {
      const auto dir = static_cast<Direction>(d);
      Wire* out = link_wires_[static_cast<std::size_t>(i) * 4 + d];
      Wire* in = nullptr;
      if (auto nb = topo_.neighbor(i, dir)) {
        const int back = static_cast<int>(opposite(dir));
        in = link_wires_[static_cast<std::size_t>(*nb) * 4 + back];
      }
      routers_[i]->connect(static_cast<PortId>(d), in, out);
    }
    routers_[i]->connect(kLocalPort, local_wire(i), nullptr);
    routers_[i]->set_eject_fn([this, i](const Flit& f, Cycle now) {
      on_eject(i, f, now);
    });
    routers_[i]->set_drop_fn([this](PacketId pid) { on_drop(pid); });
  }

  pes_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    pes_.emplace_back(i, cfg_, topo_, local_wire(i), &stats_, &packets_,
                      root_rng_.fork());
  }

  // Hard faults: kill both directions of each configured physical link
  // (static outages, pre-programmed in the VA link-state tables per §4.2),
  // mirrored into the topology so route() switches to fault-aware mode.
  // validate() has refused links at a mesh edge, so each one has a far end.
  for (const auto& [node, dir] : cfg_.dead_links) {
    const NodeId nb = *topo_.neighbor(node, dir);
    topo_.fail_link(node, dir);
    routers_[node]->fail_link(static_cast<PortId>(dir));
    routers_[nb]->fail_link(static_cast<PortId>(opposite(dir)));
  }

  // Kernel selection (DESIGN.md §4.10) follows the router type. The
  // reference model keeps no wake bookkeeping, so reference networks run
  // the full scan; optimized networks always run the event wheel.
  scan_kernel_ = cfg_.use_reference_router;
  tx_occ_cache_.assign(static_cast<std::size_t>(n), 0);
  rtx_occ_cache_.assign(static_cast<std::size_t>(n), 0);
  // Buffer-sampling denominators: every router buffers vc_buffer_depth
  // flits per VC on its local port and on each port a link wire feeds;
  // each link's sender holds a retransmission_depth barrel per VC. Equal
  // to summing the routers' tx/rtx_buffer_slots().
  const auto links = static_cast<long long>(
      std::count_if(link_wires_.begin(), link_wires_.end(),
                    [](const Wire* w) { return w != nullptr; }));
  tx_slots_total_ = (n + links) * cfg_.num_vcs * cfg_.vc_buffer_depth;
  rtx_slots_total_ = cfg_.has_rtx_barrels()
                         ? links * cfg_.num_vcs * cfg_.retransmission_depth
                         : 0;
  // The NACK horizon outlasts the longest NACK delay (W + H - 1 cycles).
  if (cfg_.protection == LinkProtection::kE2e) {
    nack_wheel_.resize(std::bit_ceil(
        static_cast<std::size_t>(topo_.width() + topo_.height())));
  }
  if (scan_kernel_) {
    // The scan steps every router every cycle.
    stepped_.resize(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) stepped_[i] = i;
  } else {
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    wake_now_.assign(words, 0);
    wake_next_.assign(words, 0);
    live_wire_mask_.assign((wires_.size() + 63) / 64, 0);
    // Devirtualized router view for the hot pop/wake loop.
    fast_routers_.resize(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      fast_routers_[i] = static_cast<Router*>(routers_[i].get());
    }
    // Everybody gets one initial step at cycle 0; routers that stay
    // idle simply never re-arm.
    for (NodeId i = 0; i < n; ++i) wake_now_[i >> 6] |= 1ull << (i & 63);
  }

  // Per-link analytics (DESIGN.md §4.14). Allocated only when asked for:
  // the default path must not touch a byte it didn't before.
  if (cfg_.link_stats) {
    link_fwd_.assign(link_wires_.size(), 0);
    link_stall_.assign(link_wires_.size(), 0);
    link_upstream_.assign(link_wires_.size(), kNoWire);
    for (NodeId i = 0; i < n; ++i) {
      for (int d = 0; d < 4; ++d) {
        const auto dir = static_cast<Direction>(d);
        if (const auto nb = topo_.neighbor(i, dir)) {
          link_upstream_[static_cast<std::size_t>(i) * 4 + d] =
              static_cast<std::uint32_t>(*nb) * 4 +
              static_cast<std::uint32_t>(opposite(dir));
        }
      }
    }
  }

  // Workload ingestion (DESIGN.md §4.14): parse + expand into TraceRecords
  // and hand them to the replay path. A malformed workload is a config
  // error, caught here where the node count is known.
  if (cfg_.has_workload()) {
    std::string werr;
    std::vector<TraceRecord> records =
        cfg_.workload_file.empty()
            ? load_workload_text(cfg_.workload_text, n, &werr)
            : load_workload_file(cfg_.workload_file, n, &werr);
    if (!werr.empty()) {
      FTNOC_ERROR("invalid workload: " + werr);
      FTNOC_CHECK(false && "invalid workload");
    }
    load_trace(std::move(records));
  }
}

void Network::on_eject(NodeId dest, const Flit& f, Cycle now) {
  PacketTable::Record* const rec = packets_.find(f.packet_id);
  if (rec == nullptr) {
    // A record lives from the packet's creation to its delivery, so a flit
    // without one is a duplicate of a delivered packet or was never
    // created: a kernel fault, never a modelled one.
    FTNOC_CHECK(monitor_ != nullptr && "ejected flit has no packet record");
    monitor_->fail(InvariantId::kPacketRecord, now, dest, kLocalPort, f.vc,
                   "ejected flit " + f.describe() + " has no live record");
    return;
  }

  // Payload oracle: decode what is actually on the wires and compare with
  // the ground truth the source encoded.
  if (cfg_.protection == LinkProtection::kE2e) {
    meter_.charge(power::EnergyEvent::kEccCheck);
  }
  const ecc::DecodeResult r = ecc::decode(f.codeword());
  const bool flit_bad =
      r.status == ecc::DecodeStatus::kUncorrectable ||
      r.data != packets_.payload(*rec, f.seq) ||
      (cfg_.ecc_detect_only && r.status != ecc::DecodeStatus::kClean);
  packets_.update(*rec, [&](PacketTable::Record& p) {
    ++p.seen;
    p.bad = p.bad || flit_bad;
  });
  if (r.status == ecc::DecodeStatus::kCorrected &&
      cfg_.protection == LinkProtection::kE2e) {
    stats_.count(Counter::link_single_corrected);
  }

  if (!is_tail(f.type)) return;

  // An incomplete message (dropped flits that were never replayed, e.g.
  // after a lost NACK) is corrupt even if every delivered flit is clean.
  // The intended length is the tail's sequence number + 1, not the global
  // packet_length knob: trace/workload packets carry their own lengths.
  const bool packet_bad =
      rec->bad || rec->seen != static_cast<std::uint32_t>(f.seq) + 1;

  if (cfg_.protection == LinkProtection::kE2e) {
    if (packet_bad) {
      // Request a retransmission from the source, hop-delayed; the message
      // is not delivered yet, and the retransmission's flits count afresh.
      // A clean delivery needs no reply: closing the record below releases
      // the source's copy.
      packets_.update(*rec, [](PacketTable::Record& p) {
        p.seen = 0;
        p.bad = false;
      });
      // The E2E control path is routed minimally, over every physical
      // link.
      const Cycle delay =
          static_cast<Cycle>(topo_.closed_form_distance(dest, f.src)) + 1;
      FTNOC_DCHECK(delay < nack_wheel_.size());
      nack_wheel_[(now + delay) & (nack_wheel_.size() - 1)].push_back(
          Nack{f.src, f.packet_id});
      return;
    }
  }

  if (packet_bad) stats_.count(Counter::unprotected_errors);
  stats_.on_message_ejected(now, rec->birth, rec->inject, packet_bad,
                            f.seq + 1u);
  if (delivery_listener_) delivery_listener_(dest, f, now);
  packets_.erase(f.packet_id);
}

void Network::on_drop(PacketId pid) {
  // The tail is the packet's last flit anywhere: its source sent it (under
  // E2E too, the source's copy is this record, and no NACK can re-queue a
  // packet that never reached its destination), and nothing downstream of
  // the discarding router holds any of it.
  packets_.erase(pid);
  ++packets_dropped_;
}

void Network::fire_due_events() {
  if (nack_wheel_.empty()) return;  // Not an E2E network.
  std::vector<Nack>& due = nack_wheel_[now_ & (nack_wheel_.size() - 1)];
  for (const Nack& nack : due) pes_[nack.target].e2e_nack(nack.pid);
  due.clear();
}

PacketId Network::inject_packet(NodeId src, NodeId dest, int length) {
  const PacketId pid = next_packet_id_++;
  packets_.open(pid, dest, static_cast<std::uint32_t>(length), now_,
                [pid](std::uint32_t k) { return (pid << 8) | k; });
  pes_[src].add_packet(pid);
  return pid;
}

void Network::load_trace(std::vector<TraceRecord> records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    FTNOC_CHECK(records[i].cycle >= now_);
    FTNOC_CHECK(i == 0 || records[i].cycle >= records[i - 1].cycle);
    FTNOC_CHECK(records[i].src < topo_.num_nodes());
    FTNOC_CHECK(records[i].dest < topo_.num_nodes());
  }
  trace_ = std::move(records);
  trace_next_ = 0;
}

double Network::tx_buffer_fraction() const {
  long long occ = 0;
  long long slots = 0;
  for (const auto& r : routers_) {
    occ += r->tx_buffer_occupancy();
    slots += r->tx_buffer_slots();
  }
  return slots ? static_cast<double>(occ) / static_cast<double>(slots) : 0.0;
}

double Network::rtx_buffer_fraction() const {
  long long occ = 0;
  long long slots = 0;
  for (const auto& r : routers_) {
    occ += r->rtx_buffer_occupancy();
    slots += r->rtx_buffer_slots();
  }
  return slots ? static_cast<double>(occ) / static_cast<double>(slots) : 0.0;
}

void Network::try_kill_link(NodeId n, Direction dir) {
  if (!topo_.link_alive(n, dir)) return;  // Already dead.
  // Partition veto: the topology already reflects every kill accepted
  // earlier this same cycle (fail_link is applied per acceptance, below),
  // so a batch of same-cycle kills is vetoed against the accepted set,
  // not against the pristine pre-batch topology.
  if (topo_.would_partition(n, dir)) return;  // Veto: limp on.
  const NodeId nb = *topo_.neighbor(n, dir);
  topo_.fail_link(n, dir);
  stats_.count(Counter::links_storm_killed);
  routers_[n]->begin_link_drain(static_cast<PortId>(dir), now_);
  routers_[nb]->begin_link_drain(static_cast<PortId>(opposite(dir)), now_);
  if (!scan_kernel_) {
    // A granted kill puts both endpoints back on the schedule until their
    // drains complete.
    schedule(n);
    schedule(nb);
  }
}

void Network::fire_storm_kills() {
  // Vetoed kills are skipped, never retried: the link limps on.
  while (next_storm_kill_ < cfg_.storm_kills.size() &&
         cfg_.storm_kills[next_storm_kill_].at <= now_) {
    const auto& k = cfg_.storm_kills[next_storm_kill_++];
    try_kill_link(k.node, k.dir);
  }
}

void Network::release_due_trace() {
  // Trace replay: release the records due this cycle into their source
  // PEs' queues (injection still obeys local-port credit flow control).
  while (trace_next_ < trace_.size() &&
         trace_[trace_next_].cycle <= now_) {
    const TraceRecord& r = trace_[trace_next_++];
    inject_packet(r.src, r.dest, r.length);
  }
}

// One cycle. Both kernels run this body; they differ only in which routers
// are stepped (scan, on reference networks: every node through RouterIface;
// event, on optimized networks: the wheel's due set through the
// devirtualized Router) and which wires are ticked (scan:
// all of them; event: the live list). Everything else is shared, in this
// order, because the shared fault-injector RNG, stats and energy meter make
// the within-cycle order observable.
void Network::step() {
  fire_due_events();
  release_due_trace();
  // "No new packets are allowed to enter the transmission buffers that are
  // involved in the deadlock recovery" (§3.2.1), enforced transitively
  // with a chip-wide wired-OR "recovery in progress" line: while ANY
  // router recovers, every PE stops *starting* packets (in-flight packets
  // keep streaming). Without it, sources far from the deadlock keep
  // refilling the slack that absorption creates and a saturated region
  // gridlocks at population == capacity, where Eq. (1) no longer holds.
  // PEs step every cycle under both kernels (synthetic sources draw RNG
  // every cycle; a sourceless idle PE's step changes nothing).
  // Without deadlock recovery no router can ever be recovering, so the
  // per-router query is skipped.
  const bool recovery = cfg_.deadlock.enable_recovery;
  for (NodeId i = 0; i < static_cast<NodeId>(pes_.size()); ++i) {
    if (pes_[i].step(now_, next_packet_id_,
                     recovery_line_ ||
                         (recovery && routers_[i]->in_recovery())) &&
        !scan_kernel_) {
      // The PE drove the injection wire: the router consumes next cycle.
      schedule(i);
      mark_wire_live(local_wire_id(i));
    }
  }

  if (scan_kernel_) {
    for (const NodeId i : stepped_) {
      RouterIface& r = *routers_[i];
      r.step(now_);
      note_occupancy(i, r.tx_buffer_occupancy(), r.rtx_buffer_occupancy());
    }
  } else {
    step_woken_routers();
  }
  router_steps_ += stepped_.size();

  // Fault-storm timeline (§4.12): configured kills fire after the
  // routers step, in schedule order.
  fire_storm_kills();
  // Buffer-utilization sampling (dropped before the measurement window).
  // Integer totals are order-independent, so they divide to a full scan's
  // exact doubles.
  stats_.sample_buffers(sampled_tx_fraction(), sampled_rtx_fraction());

  // Wired-OR recovery line, only when deadlock recovery exists at all. A
  // recovering router always re-ticks itself (in_recovery is part of the
  // retick predicate) and recovery is entered and exited only inside
  // step(), so the stepped set covers every possible asserter.
  recovery_line_ = false;
  if (cfg_.deadlock.enable_recovery) {
    for (const NodeId i : stepped_) {
      if (routers_[i]->in_recovery()) {
        recovery_line_ = true;
        break;
      }
    }
  }

  wire_ticks_ += scan_kernel_ ? wires_.size() : live_wires_.size();
  if (scan_kernel_) {
    for (Wire& w : wires_) w.tick();
  } else {
    tick_live_wires();
  }
  if (cfg_.link_stats) accumulate_link_stats();
  // After the wire ticks everything in flight is visible in a channel's
  // current value, so the structural walks see a settled snapshot.
  if (monitor_) run_invariant_walks();
  // The routers woken for this cycle were all stepped (their mask is
  // clear again); the next cycle's set takes its place.
  wake_now_.swap(wake_next_);
  ++now_;
}

void Network::accumulate_link_stats() {
  if (!stats_.measuring()) return;
  // Post-tick, a wire's cur_mask reflects exactly what the consumer can
  // read next cycle. A readable flit means the link carried traffic this
  // cycle; only a wire ticked this cycle can hold one (every wire under
  // the scan kernel, the live list under the event kernel, which keeps
  // each wire still holding a value after its tick).
  const auto nlinks = static_cast<std::uint32_t>(link_wires_.size());
  const auto count_forward = [&](std::uint32_t wid) {
    const Wire* w = link_wires_[wid];
    if (w != nullptr && (w->cur_mask & Wire::kCurFlit)) ++link_fwd_[wid];
  };
  if (scan_kernel_) {
    for (std::uint32_t wid = 0; wid < nlinks; ++wid) count_forward(wid);
  } else {
    for (const std::uint32_t wid : live_wires_) {
      if (wid < nlinks) count_forward(wid);
    }
  }
  // An idle link whose receiver still buffers flits from it is stalled
  // (the wormhole is blocked downstream — the congestion signal the
  // heatmaps plot). Only a router with buffered flits can stall a link.
  // Such a router was stepped this cycle: flits arrive only inside a step,
  // and a router that ends a step holding one has its in_work_ bit set, so
  // it re-ticks and is stepped the next cycle too. The stepped set (every
  // node under the scan kernel) therefore covers every stalled link, and
  // the occupancy cache is current for each router in it.
  const auto walk = [&](const auto& router_at) {
    for (const NodeId r : stepped_) {
      if (tx_occ_cache_[r] == 0) continue;
      const auto& rt = *router_at(r);
      for (int d = 0; d < 4; ++d) {
        if (rt.input_port_occupancy(static_cast<PortId>(d)) == 0) continue;
        // A port buffers flits only where a neighbour (and its wire)
        // exists.
        const std::uint32_t wid =
            link_upstream_[static_cast<std::size_t>(r) * 4 + d];
        if ((link_wires_[wid]->cur_mask & Wire::kCurFlit) == 0) {
          ++link_stall_[wid];
        }
      }
    }
  };
  if (scan_kernel_) {
    walk([&](NodeId r) { return routers_[r].get(); });
  } else {
    walk([&](NodeId r) { return fast_routers_[r]; });
  }
}

void Network::mark_wire_live(std::uint32_t wid) {
  if ((live_wire_mask_[wid >> 6] >> (wid & 63)) & 1ull) return;
  live_wire_mask_[wid >> 6] |= 1ull << (wid & 63);
  live_wires_.push_back(wid);
}

// The event kernel's router schedule. Byte-identical to the reference
// network's full scan by construction:
//  * a router is stepped at cycle t iff a signal written at t-1 is readable
//    on one of its wires this cycle (the writer's wake masks) or its own
//    retained state demands it (retick — take_wake_info()'s definition of
//    internal work);
//  * a router outside that set has no wire input and no internal work, so
//    its step would be a no-op; the extra steps inside it (cycle 0, a
//    retick that finds nothing left to do) run phases that are no-ops
//    too (no RNG draws, charges, stats or arbiter movement);
//  * wires hold a signal for exactly one cycle, so only wires with
//    something in flight need ticking — an untouched wire's tick is a
//    no-op by construction.
void Network::step_woken_routers() {
  // Pop this cycle's mask; step the woken routers in ascending node order.
  stepped_.clear();
  for (std::size_t w = 0; w < wake_now_.size(); ++w) {
    std::uint64_t bits = wake_now_[w];
    wake_now_[w] = 0;
    while (bits != 0) {
      const auto i = static_cast<NodeId>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      Router* const r = fast_routers_[i];
      r->step(now_);
      stepped_.push_back(i);
      note_occupancy(i, r->tx_buffer_occupancy(), r->rtx_buffer_occupancy());

      const WakeInfo wi = r->take_wake_info();
      if (wi.retick) schedule(i);
      for (std::uint8_t m = wi.wrote_fwd; m != 0;
           m &= static_cast<std::uint8_t>(m - 1)) {
        const int d = std::countr_zero(static_cast<unsigned>(m));
        const auto nb = topo_.neighbor(i, static_cast<Direction>(d));
        FTNOC_DCHECK(nb.has_value());
        mark_wire_live(static_cast<std::uint32_t>(i) * 4 +
                       static_cast<std::uint32_t>(d));
        if (nb) schedule(*nb);
      }
      for (std::uint8_t m = wi.wrote_back; m != 0;
           m &= static_cast<std::uint8_t>(m - 1)) {
        const int d = std::countr_zero(static_cast<unsigned>(m));
        if (d == kLocalPort) {
          // Credit back to the PE; PEs step every cycle regardless.
          mark_wire_live(local_wire_id(i));
          continue;
        }
        const auto nb = topo_.neighbor(i, static_cast<Direction>(d));
        FTNOC_DCHECK(nb.has_value());
        if (!nb) continue;
        mark_wire_live(static_cast<std::uint32_t>(*nb) * 4 +
                       static_cast<std::uint32_t>(
                           opposite(static_cast<Direction>(d))));
        schedule(*nb);
      }
    }
  }
}

void Network::tick_live_wires() {
  std::size_t keep = 0;
  for (std::size_t k = 0; k < live_wires_.size(); ++k) {
    const std::uint32_t wid = live_wires_[k];
    if (wire_by_id(wid)->tick_live()) {
      live_wires_[keep++] = wid;
    } else {
      live_wire_mask_[wid >> 6] &= ~(1ull << (wid & 63));
    }
  }
  live_wires_.resize(keep);
}

Router& Network::router(NodeId n) {
  FTNOC_CHECK(!cfg_.use_reference_router);
  return static_cast<Router&>(*routers_.at(n));
}

const Router& Network::router(NodeId n) const {
  FTNOC_CHECK(!cfg_.use_reference_router);
  return static_cast<const Router&>(*routers_.at(n));
}

std::uint64_t Network::state_digest() const {
  digest::Fnv h;
  h.mix(static_cast<std::uint64_t>(now_));
  h.mix(next_packet_id_);
  h.mix(recovery_line_);
  for (const auto& r : routers_) h.mix(r->state_digest());
  for (const Wire* w : link_wires_) {
    h.mix(w != nullptr);
    if (w) mix_wire(h, *w);
  }
  for (std::size_t i = 0; i < pes_.size(); ++i) mix_wire(h, *local_wire(i));
  for (const auto& pe : pes_) h.mix(pe.state_digest());
  // NACKs in flight, in due order (a slot's own order is send order).
  std::uint64_t nacks = 0;
  for (std::size_t k = 0; k < nack_wheel_.size(); ++k) {
    const Cycle due = now_ + k;
    for (const Nack& nack : nack_wheel_[due & (nack_wheel_.size() - 1)]) {
      h.mix(static_cast<std::uint64_t>(due));
      h.mix(static_cast<std::uint64_t>(nack.target));
      h.mix(nack.pid);
      ++nacks;
    }
  }
  h.mix(nacks);
  h.mix(packets_.size());
  h.mix(packets_.digest());
  return h.value();
}

void Network::run_invariant_walks() {
  for (auto& r : routers_) r->check_local_invariants(now_);

  // No flit ever travels a hard-failed link. Keyed off the *router's* dead
  // bit, not the topology: a link draining after a storm kill is still
  // legitimately carrying its last wormhole, and the router only reports
  // the port dead once its barrel proves the wire clear.
  for (NodeId i = 0; i < topo_.num_nodes(); ++i) {
    for (int d = 0; d < 4; ++d) {
      const Wire* w = link_wires_[static_cast<std::size_t>(i) * 4 + d];
      if (!w || !w->flit.peek()) continue;
      if (routers_[i]->link_failed(static_cast<PortId>(d))) {
        monitor_->fail(InvariantId::kDeadLinkTraversal, now_, i,
                       static_cast<PortId>(d), w->flit.peek()->vc,
                       "flit in flight on a hard-failed link");
      }
    }
  }

  // Flit conservation: live instances live in router state (input buffers,
  // ST registers, barrel pending regions) and on inter-router wires. Local
  // wires are excluded on both sides of the ledger: a flit enters it only
  // when the router accepts it from the PE and leaves it at ejection.
  long long live = 0;
  for (const auto& r : routers_) live += r->live_flit_count();
  for (const Wire* w : link_wires_) {
    if (w && w->flit.peek()) ++live;
  }
  monitor_->check_flit_conservation(now_, live);

  // Credit conservation, one directed link and VC at a time. The sender
  // side holds free credits plus credits bound to staged/rolled-back
  // flits; in-flight instances sit on the forward flit wire (each
  // transmitted flit owns a downstream slot) and the reverse credit wire;
  // the receiver side is plain buffer occupancy.
  const int n = topo_.num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    for (int d = 0; d < 4; ++d) {
      const Wire* w = link_wires_[static_cast<std::size_t>(i) * 4 + d];
      if (!w) continue;
      const auto nb = topo_.neighbor(i, static_cast<Direction>(d));
      FTNOC_CHECK(nb.has_value());
      const auto back =
          static_cast<PortId>(opposite(static_cast<Direction>(d)));
      for (VcId v = 0; v < cfg_.num_vcs; ++v) {
        int total = routers_[i]->held_credits(static_cast<PortId>(d), v);
        if (w->flit.peek() && w->flit.peek()->vc == v) ++total;
        for (const Credit& c : w->credit.peek()) {
          if (c.vc == v) ++total;
        }
        total += routers_[*nb]->input_buffer_size(back, v);
        monitor_->check_credit_sum(now_, i, d, v, total,
                                   cfg_.vc_buffer_depth);
      }
    }
    // The PE -> router injection link: the sender-side counter is the PE
    // lane's credit balance.
    const Wire* w = local_wire(i);
    for (VcId v = 0; v < cfg_.num_vcs; ++v) {
      int total = pes_[i].lane_credits(v);
      if (w->flit.peek() && w->flit.peek()->vc == v) ++total;
      for (const Credit& c : w->credit.peek()) {
        if (c.vc == v) ++total;
      }
      total += routers_[i]->input_buffer_size(kLocalPort, v);
      monitor_->check_credit_sum(now_, i, kLocalPort, v, total,
                                 cfg_.vc_buffer_depth);
    }
  }
}

}  // namespace ftnoc
