#include "campaign/campaign.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ftnoc::campaign {

SeedPacking seed_packing(std::size_t num_points, int max_replicas) {
  const bool fits =
      num_points <= kReplicaStride &&
      static_cast<std::uint64_t>(max_replicas) <= kReplicaStride;
  return fits ? SeedPacking::kLegacy : SeedPacking::kWide;
}

std::uint64_t replica_seed(std::uint64_t campaign_seed, SeedPacking packing,
                           std::size_t point, int replica) {
  const auto p = static_cast<std::uint64_t>(point);
  const auto r = static_cast<std::uint64_t>(replica);
  if (packing == SeedPacking::kLegacy) {
    return Rng::derive_seed(campaign_seed, p * kReplicaStride + r);
  }
  return Rng::derive_seed(Rng::derive_seed(campaign_seed, p), r);
}

CampaignEngine::CampaignEngine(CampaignOptions opts)
    : opts_(opts),
      engine_(sweep::SweepOptions{opts.num_threads, /*base_seed=*/0,
                                  sweep::SeedPolicy::kUseConfigSeed}) {
  FTNOC_CHECK(opts_.stop.max_replicas >= 1);
  FTNOC_CHECK(opts_.stop.min_replicas >= 1);
}

std::vector<PointAggregate> CampaignEngine::run(
    const std::vector<sweep::SweepPoint>& points, const Journal* resume,
    const LineCallback& on_journal_line, const AggregateCallback& on_point,
    const ProgressCallback& on_progress) {
  const std::size_t total = points.size();
  const StopRule& stop = opts_.stop;
  const SeedPacking packing = seed_packing(total, stop.max_replicas);

  std::vector<PointAggregate> aggs(total);
  std::vector<char> finished(total, 0);
  for (std::size_t p = 0; p < total; ++p) {
    FTNOC_CHECK(!points[p].config.validate().has_value());
    aggs[p].point = p;
    aggs[p].label = points[p].label;
    aggs[p].config_hash = config_hash(points[p].config);
  }

  // One scheduled (point, replica) pair. `journaled` points into the
  // resume journal for replayed replicas; `fresh` holds simulated results.
  struct Task {
    std::size_t point = 0;
    int replica = 0;
    const SimResults* journaled = nullptr;
    SimResults fresh;
  };

  std::size_t emitted = 0;  // In-order aggregate emission cursor.
  std::size_t active = total;
  while (active > 0) {
    // Schedule one wave: the next wave_size() replicas of every active
    // point, in (point, replica) order. All active points have run the
    // same number of waves, so wave composition is deterministic.
    std::vector<Task> tasks;
    for (std::size_t p = 0; p < total; ++p) {
      if (finished[p]) continue;
      const int from = aggs[p].replicas;
      const int to = std::min(from + stop.wave_size(), stop.max_replicas);
      for (int r = from; r < to; ++r) {
        Task t;
        t.point = p;
        t.replica = r;
        if (resume != nullptr) t.journaled = resume->find(p, r);
        tasks.push_back(t);
      }
    }

    // Simulate the replicas the journal does not already hold, on the
    // shared pool. Task slots are disjoint; no locking needed.
    std::vector<std::size_t> to_run;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].journaled == nullptr) to_run.push_back(i);
    }
    engine_.for_each(to_run.size(), [&](std::size_t i) {
      Task& t = tasks[to_run[i]];
      SimConfig cfg = points[t.point].config;
      cfg.seed =
          replica_seed(opts_.campaign_seed, packing, t.point, t.replica);
      t.fresh = run_simulation(cfg);
    });

    // Fold the wave in deterministic task order: wave-local aggregates
    // first (RunningStat::add per replica), then one merge per point.
    std::vector<PointAggregate> wave(total);
    std::vector<int> fresh_count(total, 0);
    for (const Task& t : tasks) {
      const SimResults& r =
          t.journaled != nullptr ? *t.journaled : t.fresh;
      wave[t.point].add_replica(r);
      if (t.journaled == nullptr) ++fresh_count[t.point];
      if (on_journal_line) {
        const std::uint64_t seed =
            replica_seed(opts_.campaign_seed, packing, t.point, t.replica);
        on_journal_line(replica_line(opts_.campaign_seed, t.point, t.replica,
                                     aggs[t.point].config_hash, seed, r));
      }
    }
    for (std::size_t p = 0; p < total; ++p) {
      if (finished[p]) continue;
      aggs[p].merge(wave[p]);
      if (on_progress) on_progress(aggs[p], fresh_count[p]);
    }

    // Retire points: CI target met (early) or replica cap reached.
    for (std::size_t p = 0; p < total; ++p) {
      if (finished[p]) continue;
      const bool met = aggs[p].meets(stop);
      const bool capped = aggs[p].replicas >= stop.max_replicas;
      if (!met && !capped) continue;
      aggs[p].stopped_early = met && !capped;
      finished[p] = 1;
      --active;
      if (on_journal_line) {
        on_journal_line(aggregate_line(aggs[p], opts_.campaign_seed));
      }
    }

    // Stream finished aggregates in point order.
    if (on_point) {
      while (emitted < total && finished[emitted]) {
        on_point(aggs[emitted]);
        ++emitted;
      }
    }
  }
  return aggs;
}

}  // namespace ftnoc::campaign
