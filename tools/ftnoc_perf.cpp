// ftnoc_perf: simulator-throughput (cycles/sec) reporter.
//
//   ftnoc_perf [--preset=NAME] [--threads=N] [--repeat=K] [--out=FILE]
//
// Runs a preset grid (default: the pinned-scale "perf" grid) through the
// SweepEngine with per-point timing and reports aggregate simulated
// cycles per wall-clock second — the number the router hot-path work is
// measured by. Point records are emitted in the regular sweep JSONL shape
// (including wall_ms), so tools/plot_bench.py ingests the output as-is.
//
// With --repeat=K the grid runs K times and only the best (max
// cycles/sec) repetition's records are emitted — the usual way to damp
// scheduler noise in before/after comparisons, and it keeps the output
// at one record per point. Per-repetition timings go to stderr.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/presets.hpp"
#include "sweep/sweep.hpp"

namespace {

constexpr const char* kUsage =
    "usage: ftnoc_perf [options] [key=value ...]\n"
    "  --preset=NAME  grid to time (default: perf)\n"
    "  --threads=N    worker threads (default 1: stable timing)\n"
    "  --seed=S       base seed for per-point derivation (default 1)\n"
    "  --repeat=K     run the grid K times, report the best (default 1)\n"
    "  --out=FILE     write JSONL records to FILE (default stdout)\n"
    "  --help         this text\n"
    "Positional key=value arguments override the base config.\n";

bool flag_value(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

int bad_value(const char* arg) {
  std::fprintf(stderr, "malformed flag value: %s\n", arg);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftnoc;

  sweep::SweepOptions opts;
  opts.num_threads = 1;
  std::string preset = "perf";
  std::string out_path;
  int repeat = 1;
  std::vector<std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string v;
    if (flag_value(arg, "--preset", v)) {
      preset = v;
    } else if (flag_value(arg, "--threads", v)) {
      if (!parse_int(v, opts.num_threads)) return bad_value(arg);
    } else if (flag_value(arg, "--seed", v)) {
      if (!parse_u64(v, opts.base_seed)) return bad_value(arg);
    } else if (flag_value(arg, "--repeat", v)) {
      if (!parse_int(v, repeat)) return bad_value(arg);
    } else if (flag_value(arg, "--out", v)) {
      out_path = v;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg, kUsage);
      return 1;
    } else {
      overrides.push_back(arg);
    }
  }
  if (repeat < 1) repeat = 1;

  SimConfig base;
  base.total_messages = 30'000;
  base.warmup_messages = 10'000;
  base.max_cycles = 1'500'000;
  if (auto err = apply_overrides(base, overrides)) {
    std::fprintf(stderr, "config error: %s\n", err->c_str());
    return 1;
  }

  const std::vector<sweep::SweepPoint> points =
      sweep::preset_points(preset, base);
  if (points.empty()) {
    std::fprintf(stderr, "unknown preset: %s\nvalid presets: %s\n",
                 preset.c_str(), sweep::preset_names_line().c_str());
    return 1;
  }
  for (const auto& pt : points) {
    if (auto err = pt.config.validate()) {
      std::fprintf(stderr, "invalid point %s: %s\n", pt.label.c_str(),
                   err->c_str());
      return 1;
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

  sweep::SweepEngine engine(opts);
  std::fprintf(stderr, "ftnoc_perf: %zu points x %d rep(s) on %d thread(s)\n",
               points.size(), repeat, engine.num_threads());

  double best_cps = 0.0;
  std::string best_lines;
  for (int rep = 0; rep < repeat; ++rep) {
    std::uint64_t total_cycles = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<sweep::PointResult> results = engine.run(points);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::string lines;
    for (const auto& pr : results) {
      total_cycles += pr.results.cycles;
      lines += sweep::to_jsonl(pr, /*include_timing=*/true);
      lines += '\n';
    }
    const double cps = wall_ms > 0.0
                           ? static_cast<double>(total_cycles) * 1e3 / wall_ms
                           : 0.0;
    if (rep == 0 || cps > best_cps) {
      best_cps = cps;
      best_lines = std::move(lines);
    }
    std::fprintf(stderr,
                 "ftnoc_perf: rep %d/%d  cycles=%llu  wall=%.1f ms  "
                 "cycles/sec=%.0f\n",
                 rep + 1, repeat,
                 static_cast<unsigned long long>(total_cycles), wall_ms, cps);
  }
  std::fwrite(best_lines.data(), 1, best_lines.size(), out);
  std::fflush(out);
  std::fprintf(stderr, "ftnoc_perf: best cycles/sec=%.0f\n", best_cps);

  if (out != stdout) std::fclose(out);
  return 0;
}
