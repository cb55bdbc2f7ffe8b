#include "sweep/grid.hpp"

#include <cstdio>
#include <cstring>

#include "sweep/presets.hpp"

namespace ftnoc::sweep {

std::optional<std::string> parse_axis(const std::string& spec, GridAxis& out) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return "expected key=value[,value...], got: " + spec;
  }
  out.key = spec.substr(0, eq);
  out.values.clear();
  std::size_t start = eq + 1;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const auto end = comma == std::string::npos ? spec.size() : comma;
    if (end == start) return "empty value in axis: " + spec;
    out.values.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.values.empty()) return "empty value in axis: " + spec;
  return std::nullopt;
}

std::optional<std::string> expand_grid(const SimConfig& base,
                                       const std::vector<GridAxis>& axes,
                                       std::vector<SweepPoint>& out) {
  for (const auto& axis : axes) {
    if (axis.values.empty()) return "axis has no values: " + axis.key;
  }

  // Odometer over the axis value indices, first axis slowest.
  std::vector<std::size_t> cursor(axes.size(), 0);
  for (;;) {
    SweepPoint pt;
    pt.config = base;
    std::string label;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& value = axes[a].values[cursor[a]];
      if (auto err = apply_override(pt.config, axes[a].key + "=" + value)) {
        return err;
      }
      if (axes[a].values.size() > 1) {
        if (!label.empty()) label += ' ';
        label += axes[a].key + "=" + value;
      }
    }
    if (auto err = pt.config.validate()) {
      return "invalid point (" + (label.empty() ? "base" : label) +
             "): " + *err;
    }
    pt.label = label.empty() ? "base" : label;
    out.push_back(std::move(pt));

    // Advance the odometer; the last axis spins fastest.
    std::size_t a = axes.size();
    for (;;) {
      if (a == 0) return std::nullopt;  // Rolled over: product complete.
      --a;
      if (++cursor[a] < axes[a].values.size()) break;
      cursor[a] = 0;
    }
  }
}

std::optional<std::string> cli_points(const std::string& preset,
                                      const std::vector<std::string>& args,
                                      std::vector<SweepPoint>& out) {
  SimConfig base;
  base.total_messages = 30'000;
  base.warmup_messages = 10'000;
  base.max_cycles = 1'500'000;
  if (preset.empty()) {
    std::vector<GridAxis> axes(args.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (auto err = parse_axis(args[i], axes[i])) return "grid error: " + *err;
    }
    if (auto err = expand_grid(base, axes, out)) return "grid error: " + *err;
    return std::nullopt;
  }
  // The preset supplies the axes.
  if (auto err = apply_overrides(base, args)) return "config error: " + *err;
  out = preset_points(preset, base);
  if (out.empty()) {
    return "unknown preset: " + preset +
           "\nvalid presets: " + preset_names_line();
  }
  for (const auto& pt : out) {
    if (auto err = pt.config.validate()) {
      return "invalid point " + pt.label + ": " + *err;
    }
  }
  return std::nullopt;
}

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

}  // namespace ftnoc::sweep
