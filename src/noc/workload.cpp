#include "noc/workload.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/config.hpp"

namespace ftnoc {
namespace {

constexpr int kMaxPacketFlits = 256;  // Flit::seq is 8 bits.
constexpr int kBytesPerFlit = 8;      // 64-bit flit payload.
constexpr std::size_t kMaxExpandedRecords = std::size_t{1} << 20;

/// One directive's key=value fields, after the name token.
struct Fields {
  bool has_start = false, has_src = false, has_dest = false;
  bool has_flits = false, has_bytes = false;
  bool has_count = false, has_period = false, has_stagger = false;
  std::uint64_t start = 0, bytes = 0, period = 1, stagger = 0;
  long long src = -1, dest = -1, flits = 0, count = 1;
};

/// Signed fields: parse_u64's strict digits, capped below 2^63.
bool parse_i64(const std::string& tok, long long& out) {
  std::uint64_t v = 0;
  const bool ok = parse_u64(tok, v) && v < (std::uint64_t{1} << 63);
  out = static_cast<long long>(v);
  return ok;
}

}  // namespace

Workload parse_workload(std::istream& in, int num_nodes, std::string* error) {
  Workload wl;
  std::string line;
  int lineno = 0;
  bool failed = false;
  auto fail = [&](const std::string& what) {
    if (error) *error = "line " + std::to_string(lineno) + ": " + what;
    failed = true;
  };
  auto check_node = [&](long long n, const char* field) {
    if (n < 0 || (num_nodes > 0 && n >= num_nodes)) {
      fail(std::string(field) + " node id out of range");
      return false;
    }
    if (n > 0xFFFF) {
      fail(std::string(field) + " node id out of range");
      return false;
    }
    return true;
  };
  // Total packets the workload will expand to — bounds memory up front.
  std::size_t total_packets = 0;
  // Counts a directive's `pairs` (src, dest) emissions of `count` transfers
  // each against the packet bound before any of them is stored, then makes
  // room for them in one step. Capacity at least doubles, so a file of many
  // small directives still reallocates only O(log n) times.
  auto admit = [&](std::size_t pairs, const Fields& f, int flits) {
    // Every transfer is at least one packet; checking the transfer count
    // first keeps the product below from overflowing.
    const auto transfers = pairs * static_cast<std::size_t>(f.count);
    if (transfers <= kMaxExpandedRecords) {
      total_packets +=
          transfers * ((static_cast<std::size_t>(flits) + wl.packet_flits - 1) /
                       wl.packet_flits);
    }
    if (transfers > kMaxExpandedRecords ||
        total_packets > kMaxExpandedRecords) {
      fail("workload expands to more than " +
           std::to_string(kMaxExpandedRecords) + " packets");
      return false;
    }
    const std::size_t need = wl.transfers.size() + transfers;
    if (need > wl.transfers.capacity()) {
      const std::size_t cap = std::max(need, 2 * wl.transfers.capacity());
      wl.transfers.reserve(cap);
      wl.transfer_packet_flits.reserve(cap);
    }
    return true;
  };
  // Emits one (possibly repeated) transfer, checking burst-cycle overflow.
  auto emit = [&](const std::string& name, const Fields& f, NodeId src,
                  NodeId dest, int flits, Cycle extra_offset) {
    for (long long i = 0; i < f.count; ++i) {
      const unsigned long long off =
          static_cast<unsigned long long>(i) * f.period;
      if (f.period != 0 && off / f.period != static_cast<unsigned long long>(i)) {
        fail("burst cycle overflows 64 bits");
        return;
      }
      const Cycle start = f.start + off + extra_offset;
      if (start < f.start || start < extra_offset) {
        fail("burst cycle overflows 64 bits");
        return;
      }
      wl.transfers.push_back({name, start, src, dest, flits});
      wl.transfer_packet_flits.push_back(wl.packet_flits);
    }
  };
  while (!failed && std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string verb;
    if (!(ls >> verb)) continue;  // Blank / comment-only line.
    if (verb == "packet_flits") {
      std::string tok, extra;
      std::uint64_t v = 0;
      if (!(ls >> tok) || !parse_u64(tok, v)) {
        fail("packet_flits expects an integer");
        continue;
      }
      if (ls >> extra) {
        fail("trailing junk: " + extra);
        continue;
      }
      if (v < 1 || v > kMaxPacketFlits) {
        fail("packet_flits must be in [1, " +
             std::to_string(kMaxPacketFlits) + "], got " + tok);
        continue;
      }
      wl.packet_flits = static_cast<int>(v);
      continue;
    }
    if (verb != "transfer" && verb != "many_to_one" && verb != "all_to_all") {
      fail("unknown directive '" + verb + "'");
      continue;
    }
    std::string name;
    if (!(ls >> name) || name.find('=') != std::string::npos) {
      fail(verb + " expects a name");
      continue;
    }
    Fields f;
    std::string tok;
    while (!failed && (ls >> tok)) {
      const auto eq = tok.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail("expected key=value, got '" + tok + "'");
        break;
      }
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      bool ok = true;
      if (key == "start") {
        ok = parse_u64(val, f.start);
        f.has_start = true;
      } else if (key == "src") {
        ok = parse_i64(val, f.src);
        f.has_src = true;
      } else if (key == "dest") {
        ok = parse_i64(val, f.dest);
        f.has_dest = true;
      } else if (key == "flits") {
        ok = parse_i64(val, f.flits);
        f.has_flits = true;
      } else if (key == "bytes") {
        ok = parse_u64(val, f.bytes);
        f.has_bytes = true;
      } else if (key == "count") {
        ok = parse_i64(val, f.count);
        f.has_count = true;
      } else if (key == "period") {
        ok = parse_u64(val, f.period);
        f.has_period = true;
      } else if (key == "stagger") {
        ok = parse_u64(val, f.stagger);
        f.has_stagger = true;
      } else {
        fail("unknown key '" + key + "'");
        break;
      }
      if (!ok) fail("bad value for " + key + ": '" + val + "'");
    }
    if (failed) break;
    // Shared validation.
    if (!f.has_start) {
      fail(verb + " requires start=");
      break;
    }
    if (f.has_flits == f.has_bytes) {
      fail(verb + " requires exactly one of flits= or bytes=");
      break;
    }
    int flits = 0;
    if (f.has_flits) {
      if (f.flits < 1 || f.flits > (1 << 20)) {
        fail("flits must be in [1, 1048576], got " + std::to_string(f.flits));
        break;
      }
      flits = static_cast<int>(f.flits);
    } else {
      if (f.bytes < 1 ||
          f.bytes > std::uint64_t{1 << 20} * kBytesPerFlit) {
        fail("bytes out of range");
        break;
      }
      flits = static_cast<int>((f.bytes + kBytesPerFlit - 1) / kBytesPerFlit);
    }
    if (f.has_count &&
        (f.count < 1 ||
         f.count > static_cast<long long>(kMaxExpandedRecords))) {
      fail("count must be in [1, " + std::to_string(kMaxExpandedRecords) +
           "]");
      break;
    }
    if (f.has_period && f.period < 1) {
      fail("period must be >= 1");
      break;
    }
    if (verb == "transfer") {
      if (f.has_stagger) {
        fail("transfer does not take stagger=");
        break;
      }
      if (!f.has_src || !f.has_dest) {
        fail("transfer requires src= and dest=");
        break;
      }
      if (!check_node(f.src, "src") || !check_node(f.dest, "dest")) break;
      if (f.src == f.dest) {
        fail("src == dest");
        break;
      }
      if (!admit(1, f, flits)) break;
      emit(name, f, static_cast<NodeId>(f.src), static_cast<NodeId>(f.dest),
           flits, 0);
    } else if (verb == "many_to_one") {
      if (f.has_src) {
        fail("many_to_one does not take src=");
        break;
      }
      if (!f.has_dest) {
        fail("many_to_one requires dest=");
        break;
      }
      if (num_nodes < 2) {
        fail("many_to_one needs at least 2 nodes");
        break;
      }
      if (!check_node(f.dest, "dest")) break;
      if (!admit(static_cast<std::size_t>(num_nodes) - 1, f, flits)) break;
      int sender_idx = 0;
      for (int s = 0; s < num_nodes && !failed; ++s) {
        if (s == f.dest) continue;
        emit(name, f, static_cast<NodeId>(s), static_cast<NodeId>(f.dest),
             flits, static_cast<Cycle>(sender_idx) * f.stagger);
        ++sender_idx;
      }
    } else {  // all_to_all
      if (f.has_src || f.has_dest) {
        fail("all_to_all does not take src= or dest=");
        break;
      }
      if (f.has_count || f.has_period) {
        fail("all_to_all does not take count= or period=");
        break;
      }
      if (num_nodes < 2) {
        fail("all_to_all needs at least 2 nodes");
        break;
      }
      const auto n = static_cast<std::size_t>(num_nodes);
      if (!admit(n * (n - 1), f, flits)) break;
      for (int s = 0; s < num_nodes && !failed; ++s) {
        for (int d = 0; d < num_nodes && !failed; ++d) {
          if (s == d) continue;
          emit(name, f, static_cast<NodeId>(s), static_cast<NodeId>(d), flits,
               static_cast<Cycle>(s) * f.stagger);
        }
      }
    }
  }
  if (failed) return {};
  if (error) error->clear();
  return wl;
}

std::vector<TraceRecord> expand_workload(const Workload& wl) {
  const auto segment = [&](std::size_t i) {
    return i < wl.transfer_packet_flits.size() ? wl.transfer_packet_flits[i]
                                               : wl.packet_flits;
  };
  std::size_t packets = 0;
  for (std::size_t i = 0; i < wl.transfers.size(); ++i) {
    const int seg = segment(i);
    packets +=
        static_cast<std::size_t>((wl.transfers[i].flits + seg - 1) / seg);
  }
  std::vector<TraceRecord> records;
  records.reserve(packets);
  for (std::size_t i = 0; i < wl.transfers.size(); ++i) {
    const WorkloadTransfer& t = wl.transfers[i];
    const int seg = segment(i);
    int remaining = t.flits;
    while (remaining > 0) {
      TraceRecord r;
      r.cycle = t.start;
      r.src = t.src;
      r.dest = t.dest;
      r.length = std::min(remaining, seg);
      records.push_back(r);
      remaining -= r.length;
    }
  }
  // Stable: packets released on the same cycle keep workload-file order,
  // which the replay path (and the golden digests) depend on.
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.cycle < b.cycle;
                   });
  return records;
}

std::vector<TraceRecord> load_workload_text(const std::string& text,
                                            int num_nodes,
                                            std::string* error) {
  std::istringstream in(text);
  const Workload wl = parse_workload(in, num_nodes, error);
  if (error && !error->empty()) return {};
  return expand_workload(wl);
}

std::vector<TraceRecord> load_workload_file(const std::string& path,
                                            int num_nodes,
                                            std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return {};
  }
  const Workload wl = parse_workload(in, num_nodes, error);
  if (error && !error->empty()) return {};
  return expand_workload(wl);
}

}  // namespace ftnoc
