#pragma once
// Crash-resumable campaign journal.
//
// Every completed replica is appended to a JSONL journal as one flushed
// line keyed by (campaign_seed, point, replica, config_hash); when a point
// finishes, its aggregate record (with the replica count the stop rule
// settled on) is appended too. Because the engine emits journal lines in a
// deterministic order, a journal written by an interrupted run is exactly
// a prefix of the uninterrupted journal — so resuming is: load the valid
// prefix, replay its replica results instead of re-simulating them, and
// append only the lines past the prefix. A torn final line (the crash
// landed mid-write) is truncated away before appending.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "noc/simulator.hpp"

namespace ftnoc::campaign {

/// Stable fingerprint of the config that defines a point (seed excluded —
/// replicas of one point differ only in seed). FNV-1a over the JSONL
/// config columns plus the kHashOnly keys off their defaults
/// (FTNOC_CONFIG_KEYS), so it changes exactly when a key that changes a
/// run changes.
std::uint64_t config_hash(const SimConfig& cfg);

/// One replica journal line (type="replica"): the key fields followed by
/// every SimResults metric, %.17g doubles — parsing them back is
/// bit-exact, which is what makes resumed aggregates byte-identical.
std::string replica_line(std::uint64_t campaign_seed, std::size_t point,
                         int replica, std::uint64_t cfg_hash,
                         std::uint64_t seed, const SimResults& r);

/// A journal parsed for resumption.
class Journal {
 public:
  /// Reads `path` and validates lines in order against this campaign's
  /// identity: a replica line must match `campaign_seed` and its point's
  /// entry in `point_hashes`; a point line must match `campaign_seed`.
  /// The valid prefix ends at the first malformed or mismatched line (or
  /// a torn final line); everything after it is ignored and should be
  /// truncated before appending. A missing file yields an empty journal.
  static Journal load(const std::string& path, std::uint64_t campaign_seed,
                      const std::vector<std::uint64_t>& point_hashes);

  /// The journaled results for (point, replica), or nullptr.
  const SimResults* find(std::size_t point, int replica) const {
    const auto it = replicas_.find({point, replica});
    return it == replicas_.end() ? nullptr : &it->second;
  }

  bool file_existed() const { return existed_; }
  std::size_t replica_count() const { return replicas_.size(); }
  std::size_t valid_lines() const { return valid_lines_; }
  std::size_t valid_bytes() const { return valid_bytes_; }
  /// Non-empty if the file held lines that do not belong to this campaign
  /// (wrong seed or config hash) — resuming would silently discard them,
  /// so callers should refuse instead.
  const std::string& mismatch() const { return mismatch_; }

 private:
  std::map<std::pair<std::size_t, int>, SimResults> replicas_;
  bool existed_ = false;
  std::size_t valid_lines_ = 0;
  std::size_t valid_bytes_ = 0;
  std::string mismatch_;
};

}  // namespace ftnoc::campaign
