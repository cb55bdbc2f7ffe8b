#include "sweep/jsonl.hpp"

#include <cstdio>
#include <type_traits>

namespace ftnoc::sweep {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Whether a gated counter's column belongs on this config's line. kAlways
// columns are not gated: append_result_fields emits them unconditionally.
bool gated_column_on(CounterGate g, const SimConfig& c) {
  switch (g) {
    case CounterGate::kAlways: return false;
    case CounterGate::kPermanentFaults: return c.has_permanent_faults();
    case CounterGate::kStormKills: return !c.storm_kills.empty();
  }
  return false;
}

// The column writer for each value kind (a config key or result field type).
template <class T>
void column(JsonRecord& o, const char* key, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    o.boolean(key, v);
  } else if constexpr (std::is_same_v<T, double>) {
    o.real(key, v);
  } else if constexpr (std::is_enum_v<T>) {
    o.str(key, to_string(v));
  } else if constexpr (std::is_integral_v<T>) {
    o.u64(key, static_cast<std::uint64_t>(v));
  } else {
    o.str(key, v);
  }
}

bool on_line(ConfigColumn rule, bool off_default, bool hashing) {
  return rule == ConfigColumn::kAlways ||
         (off_default && (rule == ConfigColumn::kIfSet ||
                          (hashing && rule == ConfigColumn::kHashOnly)));
}

// The COMPOSITE keys' columns. The permanent-fault columns appear only
// for configs that can carry hard faults, the storm and workload columns
// only when set, so older outputs (and their config hashes and golden
// digests) keep their exact key set.
void dead_link_column(JsonRecord& o, const SimConfig& c) {
  if (!c.has_permanent_faults()) return;
  std::string links;
  for (const auto& [node, dir] : c.dead_links) {
    if (!links.empty()) links += ',';
    links += std::to_string(node) + ':' + to_string(dir);
  }
  o.str("dead_links", links);
}

void storm_kill_column(JsonRecord& o, const SimConfig& c) {
  if (c.storm_kills.empty()) return;
  std::string kills;
  for (const auto& k : c.storm_kills) {
    if (!kills.empty()) kills += ',';
    kills += std::to_string(k.at) + ':' + std::to_string(k.node) + ':' +
             to_string(k.dir);
  }
  o.str("storm_kills", kills);
}

// An inline workload is named by a content hash: embedding the text would
// bloat every row, but the identity must still pin the run.
void workload_column(JsonRecord& o, const SimConfig& c) {
  if (!c.workload_file.empty()) {
    o.str("workload", c.workload_file);
  } else if (!c.workload_text.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "inline:%016llx",
                  static_cast<unsigned long long>(fnv1a(c.workload_text)));
    o.str("workload", buf);
  }
}

}  // namespace

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

void JsonRecord::str(const char* key, std::string_view v) {
  open(key);
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
}

void JsonRecord::u64(const char* key, std::uint64_t v) {
  open(key);
  out_ += std::to_string(v);
}

void JsonRecord::boolean(const char* key, bool v) {
  open(key);
  out_ += v ? "true" : "false";
}

void JsonRecord::real(const char* key, double v) {
  open(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
}

std::string JsonRecord::close() {
  out_ += '}';
  return std::move(out_);
}

void JsonRecord::open(const char* key) {
  out_ += out_.empty() ? '{' : ',';
  out_ += '"';
  out_ += key;
  out_ += "\":";
}

void append_config_fields(JsonRecord& o, const SimConfig& c, bool hashing) {
  static const SimConfig defaults;
#define FTNOC_X(key, member, rule)                                       \
  if (on_line(ConfigColumn::rule, c.member != defaults.member, hashing)) { \
    column(o, #key, c.member);                                             \
  }
#define FTNOC_COMPOSITE(key) key##_column(o, c);
  FTNOC_CONFIG_KEYS(FTNOC_X, FTNOC_COMPOSITE)
#undef FTNOC_COMPOSITE
#undef FTNOC_X
}

void append_result_fields(JsonRecord& o, const SimResults& r) {
#define FTNOC_X(name) column(o, #name, r.name);
  FTNOC_RESULT_FIELDS(FTNOC_X)
#undef FTNOC_X
#define FTNOC_X(name, window, gate) \
  if (CounterGate::gate == CounterGate::kAlways) o.u64(#name, r.name);
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
}

std::string to_jsonl(const PointResult& pr, bool include_timing) {
  JsonRecord o;

  // Identity.
  o.u64("point", pr.index);
  o.str("label", pr.label);
  o.u64("seed", pr.config.seed);

  append_config_fields(o, pr.config);
  append_result_fields(o, pr.results);

  // Gated counters follow, each only for configs that can move it — the
  // same gates as the config columns, so fault-free lines keep the exact
  // pre-fault-model key set (append_result_fields itself must not grow:
  // the campaign journal's replica lines depend on its key order).
#define FTNOC_X(name, window, gate)                      \
  if (gated_column_on(CounterGate::gate, pr.config)) { \
    o.u64(#name, pr.results.name);                     \
  }
  FTNOC_COUNTERS(FTNOC_X)
#undef FTNOC_X
  // link_stats runs carry the per-link heatmap rows, packed
  // "node:DIR=fwd/stall" so one JSONL line stays one row for the CSV/plot
  // layer to explode.
  if (pr.config.link_stats) {
    std::string rows;
    for (const auto& lu : pr.results.link_util) {
      if (!rows.empty()) rows += ',';
      rows += std::to_string(lu.node);
      rows += ':';
      rows += to_string(static_cast<Direction>(lu.dir));
      rows += '=';
      rows += std::to_string(lu.fwd);
      rows += '/';
      rows += std::to_string(lu.stall);
    }
    o.str("link_util", rows);
  }

  if (include_timing) o.real("wall_ms", pr.wall_ms);
  return o.close();
}

}  // namespace ftnoc::sweep
