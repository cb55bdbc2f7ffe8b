#include "sweep/jsonl.hpp"

#include <cstdio>

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

}  // namespace

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

void append_config_fields(JsonRecord& o, const SimConfig& c) {
  o.u64("mesh_width", static_cast<std::uint64_t>(c.mesh_width));
  o.u64("mesh_height", static_cast<std::uint64_t>(c.mesh_height));
  o.boolean("torus", c.torus);
  o.u64("num_vcs", static_cast<std::uint64_t>(c.num_vcs));
  o.u64("vc_buffer_depth", static_cast<std::uint64_t>(c.vc_buffer_depth));
  o.u64("pipeline_stages", static_cast<std::uint64_t>(c.pipeline_stages));
  o.u64("retransmission_depth",
        static_cast<std::uint64_t>(c.retransmission_depth));
  o.real("injection_rate", c.injection_rate);
  o.u64("packet_length", static_cast<std::uint64_t>(c.packet_length));
  o.str("pattern", to_string(c.pattern));
  o.str("routing", to_string(c.routing));
  o.str("protection", to_string(c.protection));
  o.boolean("ecc_detect_only", c.ecc_detect_only);
  o.boolean("enable_ac", c.enable_ac);
  o.boolean("duplicate_rtx_buffers", c.duplicate_rtx_buffers);
  o.boolean("tmr_handshaking", c.tmr_handshaking);
  o.real("link_error_rate", c.faults.link_error_rate);
  o.real("multi_bit_fraction", c.faults.multi_bit_fraction);
  o.real("rt_error_rate", c.faults.rt_error_rate);
  o.real("va_error_rate", c.faults.va_error_rate);
  o.real("sa_error_rate", c.faults.sa_error_rate);
  o.real("rtx_error_rate", c.faults.rtx_error_rate);
  o.real("handshake_error_rate", c.faults.handshake_error_rate);
  o.boolean("deadlock_recovery", c.deadlock.enable_recovery);
  o.u64("probe_threshold", c.deadlock.probe_threshold);
  o.u64("warmup_messages", c.warmup_messages);
  o.u64("total_messages", c.total_messages);
  o.u64("max_cycles", c.max_cycles);
  // Permanent-fault columns only appear for configs that can carry hard
  // faults, so fault-free sweeps (and their config hashes / golden
  // digests) stay byte-identical to the pre-fault-model output.
  if (c.has_permanent_faults()) {
    std::string links;
    for (const auto& [node, dir] : c.dead_links) {
      if (!links.empty()) links += ',';
      links += std::to_string(node);
      links += ':';
      links += to_string(dir);
    }
    o.str("dead_links", links);
  }
  // Fault-storm / adaptive-escape columns (PR 8), gated separately from
  // the has_permanent_faults() block above so pre-existing faulted presets
  // (fault_degradation) keep their exact key set and golden digests.
  if (!c.storm_kills.empty()) {
    std::string kills;
    for (const auto& k : c.storm_kills) {
      if (!kills.empty()) kills += ',';
      kills += std::to_string(k.at);
      kills += ':';
      kills += std::to_string(k.node);
      kills += ':';
      kills += to_string(k.dir);
    }
    o.str("storm_kills", kills);
  }
  if (c.adaptive_faults) o.boolean("adaptive_faults", true);
  // Workload / analytics columns (DESIGN.md §4.14): gated on their own
  // flags so every pre-existing output keeps its exact key set. An inline
  // workload is identified by a content hash — embedding the full text
  // would bloat every row, but the identity must still pin the run.
  if (c.has_workload()) {
    if (!c.workload_file.empty()) {
      o.str("workload", c.workload_file);
    } else {
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (const char ch : c.workload_text) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "inline:%016llx",
                    static_cast<unsigned long long>(h));
      o.str("workload", buf);
    }
  }
  if (c.run_to_drain) o.boolean("run_to_drain", true);
  if (c.link_stats) o.boolean("link_stats", true);
}

void append_result_fields(JsonRecord& o, const SimResults& r) {
  o.boolean("completed", r.completed);
  o.u64("cycles", r.cycles);
  o.real("avg_latency_cycles", r.avg_latency_cycles);
  o.real("avg_total_latency_cycles", r.avg_total_latency_cycles);
  o.real("p50_latency_cycles", r.p50_latency_cycles);
  o.real("p99_latency_cycles", r.p99_latency_cycles);
  o.real("max_latency_cycles", r.max_latency_cycles);
  o.u64("measured_messages", r.measured_messages);
  o.real("throughput_flits_node_cycle", r.throughput_flits_node_cycle);
  o.u64("packets_created", r.packets_created);
  o.u64("messages_ejected", r.messages_ejected);
  o.real("energy_per_message_nj", r.energy_per_message_nj);
  o.real("total_energy_uj", r.total_energy_uj);
  o.real("tx_buffer_utilization", r.tx_buffer_utilization);
  o.real("rtx_buffer_utilization", r.rtx_buffer_utilization);
  o.u64("link_errors_corrected", r.link_errors_corrected);
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
