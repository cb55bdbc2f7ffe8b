#pragma once
// Trace-driven traffic: the packet injection record that workloads expand
// into (DESIGN.md §4.14). `Network::load_trace` replays records on top of
// (or instead of) the synthetic sources.

#include "common/types.hpp"

namespace ftnoc {

struct TraceRecord {
  Cycle cycle = 0;     ///< Earliest cycle the packet may start injecting.
  NodeId src = 0;
  NodeId dest = 0;
  int length = 4;      ///< Flits.

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

}  // namespace ftnoc
