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

bool get(const std::string& line, const char* key, std::uint64_t& out) {
  const char* v = find_value(line, key);
  if (v == nullptr || !(*v >= '0' && *v <= '9')) return false;
  out = std::strtoull(v, nullptr, 10);
  return true;
}

bool get(const std::string& line, const char* key, double& out) {
  const char* v = find_value(line, key);
  if (v == nullptr) return false;
  char* end = nullptr;
  out = std::strtod(v, &end);
  return end != v;
}

bool get(const std::string& line, const char* key, bool& out) {
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
#define FTNOC_X(name) ok = ok && get(line, #name, r.name);
  FTNOC_RESULT_FIELDS(FTNOC_X)
#undef FTNOC_X
#define FTNOC_X(name, window, gate)            \
  if (CounterGate::gate == CounterGate::kAlways) \
    ok = ok && get(line, #name, r.name);
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
  return ok;
}

}  // namespace

std::uint64_t config_hash(const SimConfig& cfg) {
  sweep::JsonRecord rec;
  sweep::append_config_fields(rec, cfg, /*hashing=*/true);
  return sweep::fnv1a(rec.close());
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
                 get(record, "campaign_seed", seed) &&
                 get(record, "point", point);
    if (valid && (seed != campaign_seed || point >= point_hashes.size())) {
      j.mismatch_ = "journal line " + std::to_string(j.valid_lines_ + 1) +
                    " belongs to a different campaign (seed or point range)";
      valid = false;
    }
    if (valid && type == "replica") {
      std::uint64_t replica = 0;
      std::uint64_t hash = 0;
      SimResults r;
      valid = get(record, "replica", replica) &&
              get(record, "config_hash", hash) &&
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
