#pragma once
// JSON-lines serialization of sweep results.
//
// One record per line, keys in a fixed order, doubles printed with %.17g
// (round-trip exact): two runs of the same sweep produce byte-identical
// output regardless of thread count. Wall-clock is excluded unless asked
// for, precisely so that byte-diffing two runs is meaningful.

#include <cstdint>
#include <string>
#include <string_view>

#include "sweep/sweep.hpp"

namespace ftnoc::sweep {

/// Flat single-line JSON object builder (no nesting — none of our records
/// need it). Keys are emitted in call order; doubles use %.17g so parsing
/// them back yields bit-identical values (the campaign journal relies on
/// this for byte-identical resume).
class JsonRecord {
 public:
  void str(const char* key, std::string_view v);
  void u64(const char* key, std::uint64_t v);
  void boolean(const char* key, bool v);
  void real(const char* key, double v);
  /// Finalizes and returns the record ("{...}"); the builder is spent.
  std::string close();

 private:
  void open(const char* key);
  std::string out_;
};

/// FNV-1a 64 of `s` (campaign config hashes, inline workload names).
std::uint64_t fnv1a(std::string_view s);

/// Appends the FTNOC_CONFIG_KEYS columns of `c` in table order, as each
/// row's ConfigColumn rule says. `hashing` adds the kHashOnly keys that
/// are off their defaults (the campaign config hash).
void append_config_fields(JsonRecord& rec, const SimConfig& c,
                          bool hashing = false);

/// Appends every SimResults metric in the canonical key order.
void append_result_fields(JsonRecord& rec, const SimResults& r);

/// Serializes one finished point as a single-line JSON object (no trailing
/// newline): identity fields, the config knobs that define the point, then
/// every SimResults metric. `include_timing` appends the wall_ms field.
std::string to_jsonl(const PointResult& pr, bool include_timing = false);

}  // namespace ftnoc::sweep
