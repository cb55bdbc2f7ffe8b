// ftnoc_sweep: config-grid sweep runner on the parallel SweepEngine.
//
//   ftnoc_sweep [--flags] key=v1,v2,... [key=value ...]
//
// Each positional argument is one grid axis using the regular override
// keys (common/config.hpp); the run is the Cartesian product of all axes,
// emitted as one JSON object per line in point order. Per-point seeds are
// derived from --seed and the point index, so the JSONL output is
// byte-identical for any --threads value.
//
//   ftnoc_sweep link_error_rate=1e-5,1e-4,1e-3 protection=hbh,e2e
//   ftnoc_sweep --preset=fig05 --threads=8 --out=fig05.jsonl
//   ftnoc_sweep --preset=abl_cthres total_messages=5000 warmup_messages=1000
//
// With --preset, positional arguments must be single-valued and act as
// base-config overrides (scale knobs); the preset supplies the axes.
//
// Default run scale: 30k ejected messages, 10k warm-up, 1.5M max cycles
// per point; override via total_messages= etc. --fixed-seed runs each
// point on its config's own seed, the documented way to regenerate a
// figure (EXPERIMENTS.md).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sweep/grid.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/presets.hpp"
#include "sweep/sweep.hpp"

namespace {

constexpr const char* kUsage =
    "usage: ftnoc_sweep [options] key=v1[,v2,...] ...\n"
    "  --threads=N    worker threads (default 0 = hardware concurrency)\n"
    "  --seed=S       base seed for per-point seed derivation (default 1)\n"
    "  --fixed-seed   use each config's own seed= instead of deriving\n"
    "  --out=FILE     write JSONL records to FILE (default stdout)\n"
    "  --preset=NAME  a canonical grid, one of the presets listed below\n"
    "  --timing       include per-point wall_ms in records\n"
    "  --quiet        suppress the per-point progress on stderr\n"
    "  --help         this text\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace ftnoc;
  using sweep::bad_value;
  using sweep::flag_value;

  sweep::SweepOptions opts;
  std::string out_path;
  std::string preset;
  bool timing = false;
  bool quiet = false;
  std::vector<std::string> axis_specs;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string v;
    if (flag_value(arg, "--threads", v)) {
      if (!parse_int(v, opts.num_threads)) return bad_value(arg);
    } else if (flag_value(arg, "--seed", v)) {
      if (!parse_u64(v, opts.base_seed)) return bad_value(arg);
    } else if (std::strcmp(arg, "--fixed-seed") == 0) {
      opts.seed_policy = sweep::SeedPolicy::kUseConfigSeed;
    } else if (flag_value(arg, "--out", v)) {
      out_path = v;
    } else if (flag_value(arg, "--preset", v)) {
      preset = v;
    } else if (std::strcmp(arg, "--timing") == 0) {
      timing = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      std::printf("presets: %s\n", sweep::preset_names_line().c_str());
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg, kUsage);
      return 1;
    } else {
      axis_specs.push_back(arg);
    }
  }

  std::vector<sweep::SweepPoint> points;
  if (auto err = sweep::cli_points(preset, axis_specs, points)) {
    std::fprintf(stderr, "%s\n", err->c_str());
    return 1;
  }

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
  }

  sweep::SweepEngine engine(opts);
  if (!quiet) {
    std::fprintf(stderr, "ftnoc_sweep: %zu points on %d thread(s)\n",
                 points.size(), engine.num_threads());
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(
      points,
      [&](const sweep::PointResult& pr) {
        const std::string line = sweep::to_jsonl(pr, timing);
        std::fprintf(out, "%s\n", line.c_str());
        std::fflush(out);
      },
      [&](std::size_t done, std::size_t total,
          const sweep::PointResult& pr) {
        if (quiet) return;
        std::fprintf(stderr, "[%zu/%zu] %s  %.0f ms%s\n", done, total,
                     pr.label.c_str(), pr.wall_ms,
                     pr.results.completed ? "" : "  (TIMED-OUT)");
      });
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  if (!quiet) {
    std::fprintf(stderr, "ftnoc_sweep: done, %.2f s wall\n", wall_s);
  }
  if (out != stdout) std::fclose(out);
  return 0;
}
