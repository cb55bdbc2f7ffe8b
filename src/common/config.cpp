#include "common/config.hpp"

#include <charconv>
#include <cstdlib>

#include "common/check.hpp"
#include "common/topology.hpp"

namespace ftnoc {

const char* to_string(RoutingAlgorithm a) {
  switch (a) {
    case RoutingAlgorithm::kXY: return "xy";
    case RoutingAlgorithm::kMinimalAdaptive: return "adaptive";
    case RoutingAlgorithm::kAdaptiveEscape: return "escape";
  }
  return "?";
}

const char* to_string(LinkProtection p) {
  switch (p) {
    case LinkProtection::kNone: return "none";
    case LinkProtection::kFec: return "fec";
    case LinkProtection::kE2e: return "e2e";
    case LinkProtection::kHbh: return "hbh";
  }
  return "?";
}

const char* to_string(TrafficPattern t) {
  switch (t) {
    case TrafficPattern::kUniformRandom: return "nr";
    case TrafficPattern::kBitComplement: return "bc";
    case TrafficPattern::kTornado: return "tn";
  }
  return "?";
}

namespace {
// Eq. (1)'s right-hand side, M * sum_i ceil(T_i / M): M times the most
// distinct packets transmission buffers of T_i flits can hold.
long long recovery_buffer_need(const std::vector<int>& tx_sizes,
                               int flits_per_packet) {
  FTNOC_CHECK(flits_per_packet >= 1);
  long long packets = 0;
  for (const int t : tx_sizes) {
    FTNOC_CHECK(t >= 1);
    packets += (t + flits_per_packet - 1) / flits_per_packet;
  }
  return static_cast<long long>(flits_per_packet) * packets;
}
}  // namespace

bool recovery_buffer_bound_ok(const std::vector<int>& tx_sizes,
                              const std::vector<int>& rtx_sizes,
                              int flits_per_packet) {
  FTNOC_CHECK(tx_sizes.size() == rtx_sizes.size());
  long long b2 = 0;
  for (std::size_t i = 0; i < tx_sizes.size(); ++i) {
    FTNOC_CHECK(rtx_sizes[i] >= 0);
    b2 += tx_sizes[i] + rtx_sizes[i];
  }
  return b2 > recovery_buffer_need(tx_sizes, flits_per_packet);
}

std::optional<TestMutation> parse_test_mutation(const std::string& name) {
  if (name.empty()) return TestMutation::kNone;
  if (name == "drop_window") return TestMutation::kDropWindow;
  if (name == "route_into_dead_link") return TestMutation::kRouteIntoDeadLink;
  if (name == "strand_waiter") return TestMutation::kStrandWaiter;
  return std::nullopt;
}

std::optional<std::string> SimConfig::validate() const {
  auto err = [](std::string msg) { return std::optional<std::string>(msg); };
  if (mesh_width < 2 || mesh_height < 1) {
    return err("mesh must be at least 2x1");
  }
  if (num_nodes() > 0xFFFF - 1) return err("too many nodes for NodeId");
  // The separable allocators use 32-wide round-robin arbiters over P*V
  // global VC ids; with P = 5 ports that bounds V at 6.
  if (num_vcs < 1 || num_vcs > 6) return err("num_vcs must be in [1,6]");
  if (vc_buffer_depth < 1) return err("vc_buffer_depth must be >= 1");
  if (pipeline_stages < 1 || pipeline_stages > 4) {
    return err("pipeline_stages must be in [1,4]");
  }
  if (retransmission_depth < 3) {
    // The NACK loop is 3 cycles long (link + check + NACK); a shallower
    // buffer would overwrite a flit that may still be NACKed.
    return err("retransmission_depth must be >= 3");
  }
  if (pipeline_stages == 4 && retransmission_depth < 4) {
    // The dedicated ST stage adds one in-flight cycle to the NACK loop.
    return err("retransmission_depth must be >= 4 for a 4-stage router");
  }
  // Written so that NaN fails too: every comparison with NaN is false.
  if (!(injection_rate >= 0.0 &&
        injection_rate <= static_cast<double>(num_vcs))) {
    return err("injection_rate out of range");
  }
  if (packet_length < 1) return err("packet_length must be >= 1");
  if (!workload_file.empty() && !workload_text.empty()) {
    return err("workload_file and workload_text are mutually exclusive");
  }
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };  // NaN: no.
  if (!rate_ok(faults.link_error_rate) || !rate_ok(faults.multi_bit_fraction) ||
      !rate_ok(faults.rt_error_rate) || !rate_ok(faults.va_error_rate) ||
      !rate_ok(faults.sa_error_rate) || !rate_ok(faults.rtx_error_rate) ||
      !rate_ok(faults.handshake_error_rate)) {
    return err("fault rates must be probabilities in [0,1]");
  }
  if (total_messages == 0) return err("total_messages must be > 0");
  if (warmup_messages >= total_messages) {
    return err("warmup_messages must be < total_messages");
  }
  if (deadlock.enable_recovery && deadlock.probe_threshold == 0) {
    return err("probe_threshold must be > 0");
  }
  if (deadlock.enable_recovery &&
      !recovery_buffer_bound_ok({vc_buffer_depth}, {retransmission_depth},
                                packet_length)) {
    // With identical nodes Eq. (1) reduces to (T + R) > M * ceil(T / M),
    // independent of the cycle length. Refuse the livelocking
    // configuration outright instead of wedging at runtime.
    return err(
        "deadlock recovery violates Eq. (1): vc_buffer_depth + "
        "retransmission_depth (" +
        std::to_string(vc_buffer_depth + retransmission_depth) +
        ") must exceed packet_length * ceil(depth / packet_length) (" +
        std::to_string(recovery_buffer_need({vc_buffer_depth}, packet_length)) +
        ") or recovery cannot guarantee forward progress");
  }
  if (routing == RoutingAlgorithm::kAdaptiveEscape && num_vcs < 2) {
    return err("escape routing needs >= 2 VCs (VC 0 is the escape lane)");
  }
  if (!parse_test_mutation(test_mutation)) {
    // A mistyped plant would otherwise silently plant nothing.
    return err("unknown test_mutation \"" + test_mutation + "\"");
  }
  if (!has_permanent_faults()) return std::nullopt;
  // Hard faults are checked against the Topology the network will build,
  // so a link at a mesh edge (no channel to fail) is refused here rather
  // than silently ignored at runtime.
  Topology topo(mesh_width, mesh_height, torus);
  for (const auto& [node, dir] : dead_links) {
    if (node >= num_nodes()) return err("dead_link node out of range");
    if (dir == Direction::kLocal) return err("cannot fail a local link");
    if (!topo.has_neighbor(node, dir)) {
      return err("dead_link " + std::to_string(node) + ":" + to_string(dir) +
                 " is at the mesh edge: there is no link to fail");
    }
    topo.fail_link(node, dir);
  }
  for (std::size_t i = 0; i < storm_kills.size(); ++i) {
    const auto& k = storm_kills[i];
    if (k.node >= num_nodes()) return err("storm_kill node out of range");
    if (k.dir == Direction::kLocal) return err("cannot storm-kill a local link");
    if (!topo.has_neighbor(k.node, k.dir)) {
      return err("storm_kill " + std::to_string(k.node) + ":" +
                 to_string(k.dir) +
                 " is at the mesh edge: there is no link to kill");
    }
    if (i > 0 && k.at < storm_kills[i - 1].at) {
      // Both kernels consume the schedule with a single cursor; an
      // out-of-order entry would silently never fire.
      return err("storm_kill schedule must be sorted by cycle");
    }
  }
  if (!topo.connected()) return err("dead links partition the mesh");
  return std::nullopt;
}

bool parse_int(const std::string& v, int& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

bool parse_u64(const std::string& v, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

bool parse_double(const std::string& v, double& out) {
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end == v.c_str() + v.size() && !v.empty();
}

namespace {

bool parse_bool(const std::string& v, bool& out) {
  if (v == "1" || v == "true" || v == "on") {
    out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

std::optional<std::string> apply_override(SimConfig& cfg,
                                          const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    return "expected key=value, got: " + assignment;
  }
  const std::string key = assignment.substr(0, eq);
  const std::string val = assignment.substr(eq + 1);
  auto bad = [&]() -> std::optional<std::string> {
    return "bad value for " + key + ": " + val;
  };

  if (key == "mesh_width") {
    if (!parse_int(val, cfg.mesh_width)) return bad();
  } else if (key == "mesh_height") {
    if (!parse_int(val, cfg.mesh_height)) return bad();
  } else if (key == "torus") {
    if (!parse_bool(val, cfg.torus)) return bad();
  } else if (key == "num_vcs") {
    if (!parse_int(val, cfg.num_vcs)) return bad();
  } else if (key == "vc_buffer_depth") {
    if (!parse_int(val, cfg.vc_buffer_depth)) return bad();
  } else if (key == "pipeline_stages") {
    if (!parse_int(val, cfg.pipeline_stages)) return bad();
  } else if (key == "retransmission_depth") {
    if (!parse_int(val, cfg.retransmission_depth)) return bad();
  } else if (key == "injection_rate") {
    if (!parse_double(val, cfg.injection_rate)) return bad();
  } else if (key == "packet_length") {
    if (!parse_int(val, cfg.packet_length)) return bad();
  } else if (key == "pattern") {
    if (val == "nr" || val == "uniform") {
      cfg.pattern = TrafficPattern::kUniformRandom;
    } else if (val == "bc" || val == "bitcomp") {
      cfg.pattern = TrafficPattern::kBitComplement;
    } else if (val == "tn" || val == "tornado") {
      cfg.pattern = TrafficPattern::kTornado;
    } else {
      return bad();
    }
  } else if (key == "routing") {
    if (val == "xy" || val == "dt") {
      cfg.routing = RoutingAlgorithm::kXY;
    } else if (val == "adaptive" || val == "ad") {
      cfg.routing = RoutingAlgorithm::kMinimalAdaptive;
    } else if (val == "escape" || val == "duato") {
      cfg.routing = RoutingAlgorithm::kAdaptiveEscape;
    } else {
      return bad();
    }
  } else if (key == "protection") {
    if (val == "none") {
      cfg.protection = LinkProtection::kNone;
    } else if (val == "fec") {
      cfg.protection = LinkProtection::kFec;
    } else if (val == "e2e") {
      cfg.protection = LinkProtection::kE2e;
    } else if (val == "hbh") {
      cfg.protection = LinkProtection::kHbh;
    } else {
      return bad();
    }
  } else if (key == "enable_ac") {
    if (!parse_bool(val, cfg.enable_ac)) return bad();
  } else if (key == "ecc_detect_only") {
    if (!parse_bool(val, cfg.ecc_detect_only)) return bad();
  } else if (key == "link_error_rate") {
    if (!parse_double(val, cfg.faults.link_error_rate)) return bad();
  } else if (key == "multi_bit_fraction") {
    if (!parse_double(val, cfg.faults.multi_bit_fraction)) return bad();
  } else if (key == "rt_error_rate") {
    if (!parse_double(val, cfg.faults.rt_error_rate)) return bad();
  } else if (key == "va_error_rate") {
    if (!parse_double(val, cfg.faults.va_error_rate)) return bad();
  } else if (key == "sa_error_rate") {
    if (!parse_double(val, cfg.faults.sa_error_rate)) return bad();
  } else if (key == "rtx_error_rate") {
    if (!parse_double(val, cfg.faults.rtx_error_rate)) return bad();
  } else if (key == "handshake_error_rate") {
    if (!parse_double(val, cfg.faults.handshake_error_rate)) return bad();
  } else if (key == "duplicate_rtx_buffers") {
    if (!parse_bool(val, cfg.duplicate_rtx_buffers)) return bad();
  } else if (key == "tmr_handshaking") {
    if (!parse_bool(val, cfg.tmr_handshaking)) return bad();
  } else if (key == "deadlock_recovery") {
    if (!parse_bool(val, cfg.deadlock.enable_recovery)) return bad();
  } else if (key == "probe_threshold") {
    if (!parse_u64(val, cfg.deadlock.probe_threshold)) return bad();
  } else if (key == "probe_backoff") {
    if (!parse_u64(val, cfg.deadlock.probe_backoff)) return bad();
  } else if (key == "probe_timeout") {
    if (!parse_u64(val, cfg.deadlock.probe_timeout)) return bad();
  } else if (key == "dead_link") {
    // "node:dir" with dir in {N,E,S,W}.
    const auto colon = val.find(':');
    if (colon == std::string::npos || colon + 2 != val.size()) return bad();
    int node = 0;
    if (!parse_int(val.substr(0, colon), node) || node < 0) return bad();
    Direction d;
    switch (val[colon + 1]) {
      case 'N': case 'n': d = Direction::kNorth; break;
      case 'E': case 'e': d = Direction::kEast; break;
      case 'S': case 's': d = Direction::kSouth; break;
      case 'W': case 'w': d = Direction::kWest; break;
      default: return bad();
    }
    cfg.dead_links.emplace_back(static_cast<NodeId>(node), d);
  } else if (key == "storm_kill") {
    // "cycle:node:dir" with dir in {N,E,S,W}.
    const auto c1 = val.find(':');
    const auto c2 = c1 == std::string::npos ? std::string::npos
                                            : val.find(':', c1 + 1);
    if (c2 == std::string::npos || c2 + 2 != val.size()) return bad();
    SimConfig::LinkKill k;
    if (!parse_u64(val.substr(0, c1), k.at)) return bad();
    int node = 0;
    if (!parse_int(val.substr(c1 + 1, c2 - c1 - 1), node) || node < 0) {
      return bad();
    }
    k.node = static_cast<NodeId>(node);
    switch (val[c2 + 1]) {
      case 'N': case 'n': k.dir = Direction::kNorth; break;
      case 'E': case 'e': k.dir = Direction::kEast; break;
      case 'S': case 's': k.dir = Direction::kSouth; break;
      case 'W': case 'w': k.dir = Direction::kWest; break;
      default: return bad();
    }
    cfg.storm_kills.push_back(k);
  } else if (key == "workload") {
    if (val.empty()) return bad();
    cfg.workload_file = val;
  } else if (key == "link_stats") {
    if (!parse_bool(val, cfg.link_stats)) return bad();
  } else if (key == "run_to_drain") {
    if (!parse_bool(val, cfg.run_to_drain)) return bad();
  } else if (key == "adaptive_faults") {
    if (!parse_bool(val, cfg.adaptive_faults)) return bad();
  } else if (key == "check_invariants") {
    if (!parse_bool(val, cfg.check_invariants)) return bad();
  } else if (key == "reference_router") {
    if (!parse_bool(val, cfg.use_reference_router)) return bad();
  } else if (key == "test_mutation") {
    cfg.test_mutation = val;
  } else if (key == "seed") {
    if (!parse_u64(val, cfg.seed)) return bad();
  } else if (key == "warmup_messages") {
    if (!parse_u64(val, cfg.warmup_messages)) return bad();
  } else if (key == "total_messages") {
    if (!parse_u64(val, cfg.total_messages)) return bad();
  } else if (key == "max_cycles") {
    if (!parse_u64(val, cfg.max_cycles)) return bad();
  } else {
    return "unknown config key: " + key;
  }
  return std::nullopt;
}

std::optional<std::string> apply_overrides(
    SimConfig& cfg, const std::vector<std::string>& assignments) {
  for (const auto& a : assignments) {
    if (auto err = apply_override(cfg, a)) return err;
  }
  return std::nullopt;
}

}  // namespace ftnoc
