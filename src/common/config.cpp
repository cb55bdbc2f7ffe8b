#include "common/config.hpp"

#include <charconv>
#include <cstdlib>
#include <type_traits>

#include "common/check.hpp"
#include "common/topology.hpp"

namespace ftnoc {
namespace {

// Each named value kind's names by value: the canonical row (to_string
// prints it), then any rows of aliases the override parser also accepts.
constexpr const char* kRoutingNames[][3] = {{"xy", "adaptive", "escape"},
                                            {"dt", "ad", "duato"}};
constexpr const char* kProtectionNames[][4] = {{"none", "fec", "e2e", "hbh"}};
constexpr const char* kPatternNames[][3] = {{"nr", "bc", "tn"},
                                            {"uniform", "bitcomp", "tornado"}};
constexpr const char* kBoolNames[][2] = {
    {"0", "1"}, {"false", "true"}, {"off", "on"}};

const auto& names_of(RoutingAlgorithm) { return kRoutingNames; }
const auto& names_of(LinkProtection) { return kProtectionNames; }
const auto& names_of(TrafficPattern) { return kPatternNames; }
const auto& names_of(bool) { return kBoolNames; }

template <class E>
const char* enum_name(E e) {
  const auto& canonical = names_of(e)[0];
  const auto i = static_cast<std::size_t>(e);
  return i < std::size(canonical) ? canonical[i] : "?";
}

// One parser per value kind; FTNOC_CONFIG_KEYS picks it by member type.
bool parse_value(const std::string& v, int& out) { return parse_int(v, out); }
bool parse_value(const std::string& v, std::uint64_t& out) {
  return parse_u64(v, out);
}
bool parse_value(const std::string& v, double& out) {
  return parse_double(v, out);
}
bool parse_value(const std::string& v, std::string& out) {
  out = v;
  return true;
}

// The named kinds (bool and the enums) read their names_of() table.
template <class T>
  requires std::is_enum_v<T> || std::is_same_v<T, bool>
bool parse_value(const std::string& v, T& out) {
  for (const auto& row : names_of(out)) {
    for (std::size_t i = 0; i < std::size(row); ++i) {
      if (v == row[i]) {
        out = static_cast<T>(i);
        return true;
      }
    }
  }
  return false;
}

// "node:D" with D in {N,E,S,W} (either case): the link part of the
// dead_link and storm_kill values.
bool parse_link(const std::string& v, NodeId& node, Direction& dir) {
  const auto colon = v.find(':');
  if (colon == std::string::npos || colon + 2 != v.size()) return false;
  int n = 0;
  if (!parse_int(v.substr(0, colon), n) || n < 0 || n > kInvalidNode) {
    return false;
  }
  node = static_cast<NodeId>(n);
  switch (v[colon + 1]) {
    case 'N': case 'n': dir = Direction::kNorth; return true;
    case 'E': case 'e': dir = Direction::kEast; return true;
    case 'S': case 's': dir = Direction::kSouth; return true;
    case 'W': case 'w': dir = Direction::kWest; return true;
    default: return false;
  }
}

// The COMPOSITE keys' parsers.
bool override_dead_link(const std::string& v, SimConfig& cfg) {
  std::pair<NodeId, Direction> link;
  if (!parse_link(v, link.first, link.second)) return false;
  cfg.dead_links.push_back(link);
  return true;
}

bool override_storm_kill(const std::string& v, SimConfig& cfg) {
  // "cycle:node:D".
  const auto colon = v.find(':');
  SimConfig::LinkKill k;
  if (colon == std::string::npos || !parse_u64(v.substr(0, colon), k.at) ||
      !parse_link(v.substr(colon + 1), k.node, k.dir)) {
    return false;
  }
  cfg.storm_kills.push_back(k);
  return true;
}

bool override_workload(const std::string& v, SimConfig& cfg) {
  if (v.empty()) return false;
  cfg.workload_file = v;
  return true;
}

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

const char* to_string(RoutingAlgorithm a) { return enum_name(a); }
const char* to_string(LinkProtection p) { return enum_name(p); }
const char* to_string(TrafficPattern t) { return enum_name(t); }

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
  if (num_vcs < 1 || num_vcs > kMaxVcs) {
    return err("num_vcs must be in [1,6]");
  }
  // The optimized router indexes each input ring with 16-bit counters.
  if (vc_buffer_depth < 1 || vc_buffer_depth > 0xFFFF) {
    return err("vc_buffer_depth must be in [1,65535]");
  }
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
  // Every router builds a deadlock agent, recovery or not.
  if (deadlock.probe_threshold == 0) return err("probe_threshold must be > 0");
  if (deadlock.probe_timeout == 0) return err("probe_timeout must be > 0");
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

std::optional<std::string> apply_override(SimConfig& cfg,
                                          const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    return "expected key=value, got: " + assignment;
  }
  const std::string key = assignment.substr(0, eq);
  const std::string val = assignment.substr(eq + 1);
  auto result = [&](bool ok) -> std::optional<std::string> {
    if (ok) return std::nullopt;
    return "bad value for " + key + ": " + val;
  };
#define FTNOC_X(name, member, rule) \
  if (key == #name) return result(parse_value(val, cfg.member));
#define FTNOC_COMPOSITE(name) \
  if (key == #name) return result(override_##name(val, cfg));
  FTNOC_CONFIG_KEYS(FTNOC_X, FTNOC_COMPOSITE)
#undef FTNOC_COMPOSITE
#undef FTNOC_X
  return "unknown config key: " + key;
}

std::optional<std::string> apply_overrides(
    SimConfig& cfg, const std::vector<std::string>& assignments) {
  for (const auto& a : assignments) {
    if (auto err = apply_override(cfg, a)) return err;
  }
  return std::nullopt;
}

}  // namespace ftnoc
