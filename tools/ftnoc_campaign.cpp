// ftnoc_campaign: Monte-Carlo reliability campaign runner.
//
//   ftnoc_campaign [--flags] key=v1,v2,... [key=value ...]
//
// For every config point (a --preset grid or a Cartesian product of
// key=v1,v2 axes, exactly like ftnoc_sweep) the campaign fans out R
// replicas with seeds derived from (--seed, point, replica) through the
// shared worker pool and streams one aggregate JSON record per point:
// mean/stddev/95% CI for latency, energy and throughput, plus
// Wilson-score intervals for silent corruption, packet loss and
// deadlock-recovery success. With a CI target (--ci-abs / --ci-rel)
// replicas run in adaptive waves and a point stops as soon as its latency
// CI half-width meets the target, so cheap points don't burn the budget
// the hard points need.
//
//   ftnoc_campaign --preset=fig05 --replicas=16
//   ftnoc_campaign --preset=fig05 --replicas=64 --ci-rel=0.05
//       --journal=fig05.journal --out=fig05.agg.jsonl
//   ftnoc_campaign --preset=fig05 --replicas=64 --ci-rel=0.05
//       --resume=fig05.journal --out=fig05.agg.jsonl   # after a crash
//
// Output is byte-identical for any --threads value, and a run resumed
// from an interrupted journal reproduces the uninterrupted output (and
// journal) byte for byte.

#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/config.hpp"
#include "sweep/grid.hpp"
#include "sweep/presets.hpp"

namespace {

constexpr const char* kUsage =
    "usage: ftnoc_campaign [options] key=v1[,v2,...] ...\n"
    "  --preset=NAME     canonical paper grid (see --preset=help)\n"
    "  --replicas=N      per-point replica cap (default 16)\n"
    "  --min-replicas=N  replicas before the stop rule may fire (default 4)\n"
    "  --wave=N          replicas per adaptive wave (default: min-replicas)\n"
    "  --ci-abs=X        stop once the 95%% CI half-width of mean latency\n"
    "                    is <= X cycles\n"
    "  --ci-rel=X        ... is <= X * |mean latency|\n"
    "  --threads=N       worker threads (default 0 = hardware concurrency)\n"
    "  --seed=S          campaign seed (default 1)\n"
    "  --out=FILE        aggregate JSONL (default stdout)\n"
    "  --journal=FILE    write the per-replica journal to FILE (truncates)\n"
    "  --resume=FILE     resume from FILE's valid prefix and append to it\n"
    "  --quiet           suppress per-wave progress on stderr\n"
    "  --help            this text\n";

void list_presets(std::FILE* to) {
  std::fprintf(to, "valid presets: %s\n",
               ftnoc::sweep::preset_names_line().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftnoc;
  using sweep::bad_value;
  using sweep::flag_value;

  campaign::CampaignOptions opts;
  std::string out_path;
  std::string journal_path;
  std::string resume_path;
  std::string preset;
  bool quiet = false;
  std::vector<std::string> axis_specs;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string v;
    if (flag_value(arg, "--threads", v)) {
      if (!parse_int(v, opts.num_threads)) return bad_value(arg);
    } else if (flag_value(arg, "--seed", v)) {
      if (!parse_u64(v, opts.campaign_seed)) return bad_value(arg);
    } else if (flag_value(arg, "--replicas", v)) {
      if (!parse_int(v, opts.stop.max_replicas)) return bad_value(arg);
    } else if (flag_value(arg, "--min-replicas", v)) {
      if (!parse_int(v, opts.stop.min_replicas)) return bad_value(arg);
    } else if (flag_value(arg, "--wave", v)) {
      if (!parse_int(v, opts.stop.wave)) return bad_value(arg);
    } else if (flag_value(arg, "--ci-abs", v)) {
      if (!parse_double(v, opts.stop.ci_abs)) return bad_value(arg);
    } else if (flag_value(arg, "--ci-rel", v)) {
      if (!parse_double(v, opts.stop.ci_rel)) return bad_value(arg);
    } else if (flag_value(arg, "--out", v)) {
      out_path = v;
    } else if (flag_value(arg, "--journal", v)) {
      journal_path = v;
    } else if (flag_value(arg, "--resume", v)) {
      resume_path = v;
    } else if (flag_value(arg, "--preset", v)) {
      preset = v;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      list_presets(stdout);
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg, kUsage);
      return 1;
    } else {
      axis_specs.push_back(arg);
    }
  }

  if (opts.stop.max_replicas < 1 || opts.stop.min_replicas < 1) {
    std::fprintf(stderr, "--replicas and --min-replicas must be >= 1\n");
    return 1;
  }
  if (opts.stop.min_replicas > opts.stop.max_replicas) {
    opts.stop.min_replicas = opts.stop.max_replicas;
  }
  if (!resume_path.empty() && !journal_path.empty() &&
      resume_path != journal_path) {
    std::fprintf(stderr,
                 "--journal and --resume name different files; --resume "
                 "already appends to the resumed journal\n");
    return 1;
  }
  if (!resume_path.empty()) journal_path = resume_path;

  if (preset == "help") {
    list_presets(stdout);
    return 0;
  }
  std::vector<sweep::SweepPoint> points;
  if (auto err = sweep::cli_points(preset, axis_specs, points)) {
    std::fprintf(stderr, "%s\n", err->c_str());
    return 1;
  }

  // Resume: load the journal's valid prefix, truncate any torn tail, and
  // skip re-emitting the lines already on disk.
  std::vector<std::uint64_t> hashes;
  hashes.reserve(points.size());
  for (const auto& pt : points) {
    hashes.push_back(campaign::config_hash(pt.config));
  }
  campaign::Journal journal;
  std::size_t skip_lines = 0;
  if (!resume_path.empty()) {
    journal =
        campaign::Journal::load(resume_path, opts.campaign_seed, hashes);
    if (!journal.mismatch().empty()) {
      std::fprintf(stderr, "cannot resume from %s: %s\n", resume_path.c_str(),
                   journal.mismatch().c_str());
      return 1;
    }
    skip_lines = journal.valid_lines();
    if (journal.file_existed()) {
      if (truncate(resume_path.c_str(),
                   static_cast<off_t>(journal.valid_bytes())) != 0) {
        std::fprintf(stderr, "cannot truncate %s to its valid prefix\n",
                     resume_path.c_str());
        return 1;
      }
    }
  }

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
  }
  std::FILE* jf = nullptr;
  if (!journal_path.empty()) {
    jf = std::fopen(journal_path.c_str(),
                    resume_path.empty() ? "w" : "a");
    if (jf == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   journal_path.c_str());
      return 1;
    }
  }

  campaign::CampaignEngine engine(opts);
  if (!quiet) {
    std::fprintf(stderr,
                 "ftnoc_campaign: %zu points x <=%d replicas on %d "
                 "thread(s)%s%s\n",
                 points.size(), opts.stop.max_replicas, engine.num_threads(),
                 opts.stop.adaptive() ? ", adaptive stopping" : "",
                 skip_lines != 0 ? ", resuming" : "");
    if (skip_lines != 0) {
      std::fprintf(stderr, "ftnoc_campaign: journal holds %zu line(s), %zu "
                           "replica(s) will be replayed\n",
                   skip_lines, journal.replica_count());
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t lines_emitted = 0;
  std::uint64_t simulated = 0;
  engine.run(
      points, resume_path.empty() ? nullptr : &journal,
      [&](const std::string& line) {
        if (jf == nullptr) return;
        // The engine re-emits the whole deterministic line sequence; the
        // first `skip_lines` of it are already on disk.
        if (lines_emitted++ < skip_lines) return;
        std::fprintf(jf, "%s\n", line.c_str());
        std::fflush(jf);
      },
      [&](const campaign::PointAggregate& agg) {
        const std::string line =
            campaign::aggregate_line(agg, opts.campaign_seed);
        std::fprintf(out, "%s\n", line.c_str());
        std::fflush(out);
      },
      [&](const campaign::PointAggregate& agg, int fresh) {
        simulated += static_cast<std::uint64_t>(fresh);
        if (quiet) return;
        const double hw = agg.latency_ci();
        std::fprintf(stderr, "[%s r=%d] latency=%.2f +-%.2f cyc%s\n",
                     agg.label.c_str(), agg.replicas, agg.latency.mean(),
                     agg.replicas > 1 ? hw : 0.0,
                     agg.completed_replicas == agg.replicas ? ""
                                                            : "  (TIMED-OUT)");
      });
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  if (!quiet) {
    std::fprintf(stderr,
                 "ftnoc_campaign: done, %llu replica(s) simulated, %.2f s "
                 "wall\n",
                 static_cast<unsigned long long>(simulated), wall_s);
  }
  if (jf != nullptr) std::fclose(jf);
  if (out != stdout) std::fclose(out);
  return 0;
}
