#pragma once
// Monte-Carlo reliability campaign engine.
//
// A campaign turns every sweep point into R independent replicas: the same
// config simulated under unrelated seeds
// Rng::derive_seed(campaign_seed, point * kReplicaStride + replica), so a
// replica's stream depends only on the campaign definition — never on the
// thread count, scheduling order, or whether it was replayed from a
// journal. Replicas are scheduled in waves across all still-active points
// through the SweepEngine worker pool (SweepEngine::for_each); after each
// wave the adaptive stop rule retires points whose latency CI half-width
// met its target, so cheap low-variance points stop at min_replicas while
// hard points keep their budget.
//
// Determinism guarantee: wave composition, stop decisions, journal-line
// order and aggregate emission order are all pure functions of
// (points, campaign_seed, StopRule) — a campaign's outputs are
// byte-identical for any thread count, and byte-identical again when
// resumed from any prefix of its own journal.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "campaign/estimators.hpp"
#include "campaign/journal.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc::campaign {

/// Seed-space stride between points under the legacy packing: replica r
/// of point p draws seed derive_seed(campaign_seed, p * kReplicaStride + r).
/// Bounds the replica cap (enforced by the packing gate), and keeps every
/// point's replica block disjoint — but only while both the point count
/// and the replica cap fit the 2^20 budget: p * 2^20 + r wraps mod 2^64
/// once p reaches 2^44, at which point distinct (point, replica) pairs
/// alias the same seed index (see SeedPacking::kWide).
inline constexpr std::uint64_t kReplicaStride = 1ull << 20;

/// How (point, replica) is packed into the derive_seed index space.
enum class SeedPacking : std::uint8_t {
  /// index = point * 2^20 + replica. The PR 2 scheme; kept bit-for-bit for
  /// every campaign that fits it, so existing journals resume and existing
  /// outputs stay byte-identical.
  kLegacy,
  /// seed = derive_seed(derive_seed(campaign_seed, point), replica): a
  /// two-level derivation whose index space is (2^64)^2 — no stride to
  /// outgrow, no wraparound, no cross-point aliasing at any grid size.
  kWide,
};

/// The packing a campaign of `num_points` points with replica cap
/// `max_replicas` uses: legacy exactly when both fit the 2^20 stride
/// budget (every campaign shipped before the wide packing existed did),
/// wide otherwise. A pure function of the campaign definition, so a
/// resumed run always agrees with the run that wrote its journal.
SeedPacking seed_packing(std::size_t num_points, int max_replicas);

/// The seed replica `replica` of point `point` simulates under.
std::uint64_t replica_seed(std::uint64_t campaign_seed, SeedPacking packing,
                           std::size_t point, int replica);

struct CampaignOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  std::uint64_t campaign_seed = 1;
  StopRule stop;
};

class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignOptions opts = {});

  /// One finished journal line (no trailing newline), emitted in the
  /// deterministic campaign order: per wave, every replica record in
  /// (point, replica) order, then the aggregate record of every point the
  /// wave retired, in point order. Resuming callers count lines and skip
  /// the prefix already on disk.
  using LineCallback = std::function<void(const std::string&)>;

  /// Invoked in point order (0, 1, 2, ...) as soon as a prefix of the
  /// campaign's points has finished — the streaming aggregate output.
  using AggregateCallback = std::function<void(const PointAggregate&)>;

  /// Invoked after each wave for every point that gained replicas, with
  /// the point's cumulative aggregate and how many of the wave's replicas
  /// were fresh simulations (the rest were replayed from the journal).
  using ProgressCallback = std::function<void(const PointAggregate& agg,
                                              int fresh_in_wave)>;

  /// Runs the campaign and returns per-point aggregates in point order.
  /// `resume` (optional) supplies journaled replica results to replay
  /// instead of re-simulating. Each config must satisfy
  /// SimConfig::validate(); violations abort.
  std::vector<PointAggregate> run(
      const std::vector<sweep::SweepPoint>& points,
      const Journal* resume = nullptr,
      const LineCallback& on_journal_line = nullptr,
      const AggregateCallback& on_point = nullptr,
      const ProgressCallback& on_progress = nullptr);

  /// The pool size the engine resolved to.
  int num_threads() const { return engine_.num_threads(); }

 private:
  CampaignOptions opts_;
  sweep::SweepEngine engine_;
};

}  // namespace ftnoc::campaign
