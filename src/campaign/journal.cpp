#include "campaign/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sweep/jsonl.hpp"

namespace ftnoc::campaign {
namespace {

// --- Flat-JSON field extraction -----------------------------------------
// The journal is written by JsonRecord (flat, fixed key order, no nesting,
// %.17g doubles), so a positional key scan is a faithful parser for it.
// Each getter fails (returns false) on a missing key, which ends the
// journal's valid prefix.

const char* find_value(const std::string& line, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  return line.c_str() + pos + needle.size();
}

bool get_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const char* v = find_value(line, key);
  if (v == nullptr || !(*v >= '0' && *v <= '9')) return false;
  out = std::strtoull(v, nullptr, 10);
  return true;
}

bool get_real(const std::string& line, const char* key, double& out) {
  const char* v = find_value(line, key);
  if (v == nullptr) return false;
  char* end = nullptr;
  out = std::strtod(v, &end);
  return end != v;
}

bool get_bool(const std::string& line, const char* key, bool& out) {
  const char* v = find_value(line, key);
  if (v == nullptr) return false;
  if (std::strncmp(v, "true", 4) == 0) {
    out = true;
    return true;
  }
  if (std::strncmp(v, "false", 5) == 0) {
    out = false;
    return true;
  }
  return false;
}

bool get_type(const std::string& line, std::string& out) {
  const char* v = find_value(line, "type");
  if (v == nullptr || *v != '"') return false;
  const char* end = std::strchr(v + 1, '"');
  if (end == nullptr) return false;
  out.assign(v + 1, end);
  return true;
}

/// Parses every SimResults field of a replica line (the mirror of
/// sweep::append_result_fields). Any missing field fails the line.
bool parse_results(const std::string& line, SimResults& r) {
  bool ok = true;
  ok = ok && get_bool(line, "completed", r.completed);
  ok = ok && get_u64(line, "cycles", r.cycles);
  ok = ok && get_real(line, "avg_latency_cycles", r.avg_latency_cycles);
  ok = ok &&
       get_real(line, "avg_total_latency_cycles", r.avg_total_latency_cycles);
  ok = ok && get_real(line, "p50_latency_cycles", r.p50_latency_cycles);
  ok = ok && get_real(line, "p99_latency_cycles", r.p99_latency_cycles);
  ok = ok && get_real(line, "max_latency_cycles", r.max_latency_cycles);
  ok = ok && get_u64(line, "measured_messages", r.measured_messages);
  ok = ok && get_real(line, "throughput_flits_node_cycle",
                      r.throughput_flits_node_cycle);
  ok = ok && get_u64(line, "packets_created", r.packets_created);
  ok = ok && get_u64(line, "messages_ejected", r.messages_ejected);
  ok = ok && get_real(line, "energy_per_message_nj", r.energy_per_message_nj);
  ok = ok && get_real(line, "total_energy_uj", r.total_energy_uj);
  ok = ok && get_real(line, "tx_buffer_utilization", r.tx_buffer_utilization);
  ok = ok &&
       get_real(line, "rtx_buffer_utilization", r.rtx_buffer_utilization);
  ok = ok && get_u64(line, "link_errors_corrected", r.link_errors_corrected);
#define FTNOC_X(name, window, gate)            \
  if (CounterGate::gate == CounterGate::kAlways) \
    ok = ok && get_u64(line, #name, r.name);
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
  return ok;
}

}  // namespace

std::uint64_t config_hash(const SimConfig& cfg) {
  SimConfig canonical = cfg;
  canonical.seed = 0;  // Replicas of one point differ only in seed.
  sweep::JsonRecord rec;
  sweep::append_config_fields(rec, canonical);
  const std::string s = rec.close();

  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64.
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string replica_line(std::uint64_t campaign_seed, std::size_t point,
                         int replica, std::uint64_t cfg_hash,
                         std::uint64_t seed, const SimResults& r) {
  sweep::JsonRecord o;
  o.str("type", "replica");
  o.u64("campaign_seed", campaign_seed);
  o.u64("point", point);
  o.u64("replica", static_cast<std::uint64_t>(replica));
  o.u64("config_hash", cfg_hash);
  o.u64("seed", seed);
  sweep::append_result_fields(o, r);
  return o.close();
}

Journal Journal::load(const std::string& path, std::uint64_t campaign_seed,
                      const std::vector<std::uint64_t>& point_hashes) {
  Journal j;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return j;
  j.existed_ = true;

  std::string line;
  char buf[4096];
  std::size_t offset = 0;  // Byte offset of the start of `line`.
  bool stop = false;
  while (!stop && std::fgets(buf, sizeof(buf), f) != nullptr) {
    line += buf;
    if (line.empty() || line.back() != '\n') continue;  // Partial read.

    // Validate one complete line.
    const std::string record = line.substr(0, line.size() - 1);
    std::string type;
    std::uint64_t seed = 0;
    std::uint64_t point = 0;
    bool valid = get_type(record, type) &&
                 get_u64(record, "campaign_seed", seed) &&
                 get_u64(record, "point", point);
    if (valid && (seed != campaign_seed || point >= point_hashes.size())) {
      j.mismatch_ = "journal line " + std::to_string(j.valid_lines_ + 1) +
                    " belongs to a different campaign (seed or point range)";
      valid = false;
    }
    if (valid && type == "replica") {
      std::uint64_t replica = 0;
      std::uint64_t hash = 0;
      SimResults r;
      valid = get_u64(record, "replica", replica) &&
              get_u64(record, "config_hash", hash) &&
              parse_results(record, r);
      if (valid && hash != point_hashes[point]) {
        j.mismatch_ = "journal line " + std::to_string(j.valid_lines_ + 1) +
                      " has a different config hash for point " +
                      std::to_string(point);
        valid = false;
      }
      if (valid) {
        j.replicas_[{static_cast<std::size_t>(point),
                     static_cast<int>(replica)}] = r;
      }
    } else if (valid && type != "point") {
      valid = false;  // Unknown record type.
    }

    if (!valid) {
      stop = true;  // The valid prefix ends before this line.
    } else {
      ++j.valid_lines_;
      offset += line.size();
      j.valid_bytes_ = offset;
    }
    line.clear();
  }
  std::fclose(f);
  return j;
}

}  // namespace ftnoc::campaign
