#include "sweep/sweep.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ftnoc::sweep {

SweepEngine::SweepEngine(SweepOptions opts) : opts_(opts) {
  threads_ = opts_.num_threads;
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

void SweepEngine::for_each(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };

  const auto pool_size = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads_), count));
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(pool_size));
    for (int t = 0; t < pool_size; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
}

std::vector<PointResult> SweepEngine::run(const std::vector<SweepPoint>& points,
                                          const ResultCallback& on_result,
                                          const ProgressCallback& on_progress) {
  const std::size_t total = points.size();
  std::vector<PointResult> results(total);
  if (total == 0) return results;

  std::mutex mu;  // Guards `done`, the callbacks and the emit cursor.
  std::vector<char> done(total, 0);
  std::size_t emitted = 0;
  std::size_t completed = 0;

  for_each(total, [&](std::size_t i) {
    PointResult pr;
    pr.index = i;
    pr.label = points[i].label;
    pr.config = points[i].config;
    if (opts_.seed_policy == SeedPolicy::kDerivePerPoint) {
      pr.config.seed = Rng::derive_seed(opts_.base_seed, i);
    }
    FTNOC_CHECK(!pr.config.validate().has_value());

    const auto t0 = std::chrono::steady_clock::now();
    pr.results = run_simulation(pr.config);
    pr.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();

    std::lock_guard<std::mutex> lock(mu);
    results[i] = std::move(pr);
    done[i] = 1;
    ++completed;
    if (on_progress) on_progress(completed, total, results[i]);
    if (on_result) {
      while (emitted < total && done[emitted]) {
        on_result(results[emitted]);
        ++emitted;
      }
    }
  });
  return results;
}

}  // namespace ftnoc::sweep
