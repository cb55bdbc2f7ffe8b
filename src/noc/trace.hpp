#pragma once
// Trace-driven traffic: record, store and replay packet injection traces.
//
// The paper evaluates on synthetic patterns only (§2.2); trace replay is
// the standard companion facility in NoC simulators (application traces,
// regression traces, cross-simulator comparisons). The format is plain
// text, one packet per line:
//
//     # comment
//     <inject_cycle> <src> <dest> <length>
//
// sorted by inject_cycle (the loader enforces it). `Network::load_trace`
// replays a trace on top of (or instead of) the synthetic sources.

#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "common/types.hpp"

namespace ftnoc {

struct TraceRecord {
  Cycle cycle = 0;     ///< Earliest cycle the packet may start injecting.
  NodeId src = 0;
  NodeId dest = 0;
  int length = 4;      ///< Flits.

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Parses a trace from a stream. Returns an error message on malformed
/// input (bad fields, unsorted cycles, src == dest, negative length).
/// `num_nodes` bounds the node ids; pass 0 to skip the range check.
std::vector<TraceRecord> parse_trace(std::istream& in, int num_nodes,
                                     std::string* error);

/// Loads a trace file; aborts the error into `error` like parse_trace.
std::vector<TraceRecord> load_trace(const std::string& path, int num_nodes,
                                    std::string* error);

/// Writes records in the canonical text format.
void write_trace(std::ostream& out, const std::vector<TraceRecord>& records);

/// Offline generator: synthesizes a trace equivalent to `cycles` cycles of
/// the Bernoulli source at `injection_rate` flits/node/cycle under the
/// given destination pattern — useful for building reproducible regression
/// traces without running the simulator.
std::vector<TraceRecord> synthesize_trace(const Topology& topo,
                                          TrafficPattern pattern,
                                          double injection_rate,
                                          int packet_length, Cycle cycles,
                                          Rng rng);

}  // namespace ftnoc
