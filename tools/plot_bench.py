#!/usr/bin/env python3
"""Convert ftnoc sweep/campaign JSONL into per-figure CSV files.

Usage:
    python3 tools/plot_bench.py fig05.jsonl [outdir]
    python3 tools/plot_bench.py fig05.agg.jsonl fig06.agg.jsonl [outdir]

Every argument naming an existing file is an input; a trailing argument
that is not an existing file is the output directory (default
bench_csv).  Multiple inputs are folded into one figure set, so
several sweep or campaign outputs land in the same CSVs as a
single-file run.

Inputs are JSONL records from ftnoc_sweep (one config point per line) or
ftnoc_campaign (one aggregate record per point, type="point"; per-replica
journal lines are skipped — plot the aggregates they back).  A non-blank
line that is not a JSON object is an error: the converter names it
(path:line) and exits non-zero.

A row is keyed by its series (BC) and x value (0.001) taken from the
label, one CSV per figure, ready for any plotting tool.
"""
import collections
import csv
import json
import os
import re
import sys


def split_label(figure_and_series):
    """Splits ["BC", "err=0.001"]-style label segments into (series, x)."""
    point = figure_and_series[-1] if len(figure_and_series) > 1 else ""
    series = ("/".join(figure_and_series[:-1])
              if len(figure_and_series) > 1 else figure_and_series[0])
    x = point.split("=", 1)[1] if "=" in point else point
    return series, x


LINK = re.compile(r"(\d+):([NESW])=(\d+)/(\d+)")


def ingest_link_util(rec, figure, series, x, heatmaps):
    """Explodes a packed link_util string ("node:DIR=fwd/stall,...") into
    per-link heatmap rows: one row per directed link, with mesh
    coordinates so a plotting tool can place them without re-deriving the
    node layout."""
    width = rec.get("mesh_width", 0) or 0
    cycles = rec.get("cycles", 0) or 0
    for node, dir_, fwd, stall in LINK.findall(rec["link_util"]):
        node, fwd, stall = int(node), int(fwd), int(stall)
        heatmaps[figure].append({
            "series": series,
            "x": x,
            "node": node,
            "node_x": node % width if width else 0,
            "node_y": node // width if width else 0,
            "dir": dir_,
            "fwd": fwd,
            "stall": stall,
            "fwd_frac": fwd / cycles if cycles else 0.0,
            "stall_frac": stall / cycles if cycles else 0.0,
        })


def ingest_jsonl(rec, figures, heatmaps):
    if not isinstance(rec.get("label"), str):
        return
    if rec.get("type") == "replica":
        return  # Journal replica lines; the type="point" aggregates follow.
    parts = rec["label"].split("/")
    if len(parts) >= 2:
        figure = parts[0]
        series, x = split_label(parts[1:])
    else:
        # Ad-hoc grids ("inj=0.05") have no figure prefix; group them all.
        figure, series, x = "points", rec["label"], ""
    if isinstance(rec.get("link_util"), str):
        ingest_link_util(rec, figure, series, x, heatmaps)
    row = {"series": series, "x": x}
    for key, val in rec.items():
        if key in ("label", "type"):
            continue
        if isinstance(val, bool):
            row[key] = int(val)
        elif isinstance(val, (int, float)):
            row[key] = val
    # Derived column for degradation curves (fault_degradation,
    # fault_storm): the fraction of created packets actually delivered.
    # Whole-run counters, so the ratio is meaningful even on cycle-capped
    # or incomplete points.
    created = row.get("packets_created", 0)
    if created:
        row["delivered_fraction"] = row.get("messages_ejected", 0) / created
    figures[figure].append(row)


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    args = sys.argv[1:]
    # A trailing argument that is not an existing file is the outdir
    # (keeps the historical `plot_bench.py input.jsonl outdir` calls
    # working); everything else is an input file.
    outdir = "bench_csv"
    if len(args) > 1 and not os.path.isfile(args[-1]):
        outdir = args.pop()
    os.makedirs(outdir, exist_ok=True)

    figures = collections.defaultdict(list)
    heatmaps = collections.defaultdict(list)
    for path in args:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    rec = None
                if not isinstance(rec, dict):
                    sys.exit(f"{path}:{lineno}: not a JSON object")
                ingest_jsonl(rec, figures, heatmaps)

    for figure, rows in figures.items():
        keys = ["series", "x"] + sorted(
            {k for r in rows for k in r} - {"series", "x"})
        out = os.path.join(outdir, figure.lower() + ".csv")
        with open(out, "w", newline="") as f:
            # Mixed-schema inputs are normal: fault-gated counters
            # (packets_rerouted, unreachable_drops, links_storm_killed)
            # only appear on records from faulted configs. A missing
            # numeric cell means "feature off" = 0, not "unknown" — an
            # empty cell would break numeric parsing downstream.
            w = csv.DictWriter(f, fieldnames=keys, restval=0)
            w.writeheader()
            w.writerows(rows)
        print(f"{out}: {len(rows)} rows")

    # Per-link congestion heatmaps (records with a link_util column):
    # a long-format CSV per figure — (series, x, node_x, node_y, dir) ->
    # fwd/stall counts and per-cycle fractions — ready to pivot into a
    # mesh heatmap.
    for figure, rows in heatmaps.items():
        keys = ["series", "x", "node", "node_x", "node_y", "dir",
                "fwd", "stall", "fwd_frac", "stall_frac"]
        out = os.path.join(outdir, figure.lower() + "_heatmap.csv")
        with open(out, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=keys, restval=0)
            w.writeheader()
            w.writerows(rows)
        print(f"{out}: {len(rows)} link rows")


if __name__ == "__main__":
    main()
