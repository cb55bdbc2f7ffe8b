#pragma once
// Config-grid specification for sweeps.
//
// Each axis is a `key=v1,v2,...` string using the regular override keys of
// common/config.hpp; the grid is the Cartesian product of all axes applied
// to a base config via apply_override. A single-valued axis simply pins a
// knob. Axis order is preserved: the first axis varies slowest, so the
// expansion order (and therefore point indices, labels and derived seeds)
// is a deterministic function of the spec.

#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sweep/sweep.hpp"

namespace ftnoc::sweep {

struct GridAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Splits `key=v1,v2,...` into an axis. Returns an error description on a
/// missing '=' or an empty value; nullopt on success.
std::optional<std::string> parse_axis(const std::string& spec, GridAxis& out);

/// Expands the Cartesian product of `axes` over `base` into `out`. Each
/// point's label joins the multi-valued axes as "key=value key2=value2"
/// (single-valued axes pin config knobs and stay out of the label); a grid
/// with no multi-valued axis yields one point labelled "base". Every
/// expanded config is validated. Returns the first override/validation
/// error, or nullopt on success.
std::optional<std::string> expand_grid(const SimConfig& base,
                                       const std::vector<GridAxis>& axes,
                                       std::vector<SweepPoint>& out);

// --- Command line (ftnoc_sweep, ftnoc_campaign) -----------------------------

/// A tool run's points at the tools' scale (30k ejected messages, 10k
/// warm-up, 1.5M max cycles per point): `preset`'s grid with `args` as
/// single-valued base overrides or, with no preset, the product of the
/// `args` axes. Every point is validated. Returns the error message, or
/// nullopt on success.
std::optional<std::string> cli_points(const std::string& preset,
                                      const std::vector<std::string>& args,
                                      std::vector<SweepPoint>& out);

/// True when `arg` is `name=VALUE`; VALUE goes to `out`.
bool flag_value(const char* arg, const char* name, std::string& out);

/// Reports a malformed flag value on stderr; returns exit status 1.
int bad_value(const char* arg);

}  // namespace ftnoc::sweep
