#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 bench/e2e/run.py --seed 1-10 --out A.json   # parent
    python3 bench/e2e/run.py --seed 1-10 --out B.json   # change
    python3 bench/e2e/compare.py A.json B.json

Host metrics (wall_s, setup_s, ns_per_router_cycle, peak_rss_mb) vary from
run to run. For each, the row gives both sides' medians and quartiles over
their runs, each side's spread (the distance between the quartiles as a
share of the median) and the metric's bound. Verdicts follow the
choosing-metrics rules:

    unresolved  a spread exceeds the bound, and B is not better than A in
                every pair of runs
    worse       B's median is worse than A's by more than the bound
    ok          otherwise

A spread above a third of the bound is flagged with '~': the benchmark aims
to stay below that.

The simulated metrics repeat exactly for a seed, so they are compared seed
by seed, A's seed s against B's seed s, with no spread involved. The row
gives the median over the shared seeds of B/A-1 and the worst seed's change.
It reads worse when that median is worse than the bound, and it is marked
'changed' when any seed's value moved at all.

Exits non-zero unless every row is ok.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# End-to-end metrics that are simulated values: exact for a given seed.
SIMULATED = {"sim_latency_avg_cycles", "sim_energy_per_msg_nj",
             "delivered_fraction"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path):
    """{(workload, metric): {seed: [values]}} over a run.py --out file."""
    out = {}
    for rep in json.loads(Path(path).read_text())["runs"]:
        for name, m in rep["end_to_end"].items():
            out.setdefault((rep["workload"], name), {}) \
               .setdefault(rep["seed"], []).append(m["value"])
    return out


def host_row(a, b, bound, lower):
    """(columns, verdict) over every run of either side."""
    a = [v for vs in a.values() for v in vs]
    b = [v for vs in b.values() for v in vs]
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    change = qb[1] / qa[1] - 1
    worse_by = change if lower else -change
    if max(spread_a, spread_b) > bound:
        better_always = max(b) < min(a) if lower else min(b) > max(a)
        verdict = "ok (better in every run)" if better_always \
            else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    flag = "~" if max(spread_a, spread_b) > bound / 3 else " "
    cols = (f" {qa[1]:12.6g} {qb[1]:12.6g} {change:+8.2%} {spread_a:8.2%}"
            f" {spread_b:8.2%} {bound:6.1%}{flag} {verdict}"
            f"   [A q1..q3 {qa[0]:.6g}..{qa[2]:.6g}, n={len(a)};"
            f" B {qb[0]:.6g}..{qb[2]:.6g}, n={len(b)}]")
    return cols, verdict


def simulated_row(a, b, bound, lower):
    """(columns, verdict) over the seeds both sides ran, paired by seed."""
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return " no seed in common", "missing"
    # Every run of a seed reads the same, so its first run stands for it.
    changes = [b[s][0] / a[s][0] - 1 for s in seeds]
    worse = [c if lower else -c for c in changes]
    median_worse = statistics.median(worse)
    worst = max(worse) + 0.0  # no "-0.00%"
    verdict = "worse" if median_worse > bound else "ok"
    if any(c != 0 for c in changes):
        verdict += " (changed)"
    med_a = statistics.median(a[s][0] for s in seeds)
    med_b = statistics.median(b[s][0] for s in seeds)
    cols = (f" {med_a:12.6g} {med_b:12.6g}"
            f" {statistics.median(changes):+8.2%} {'exact':>8s} {'exact':>8s}"
            f" {bound:6.1%}  {verdict}"
            f"   [paired over {len(seeds)} seeds; worst seed {worst:+.2%}"
            f" worse]")
    return cols, verdict


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':20s} {'metric':24s} {'A median':>12s} {'B median':>12s}"
          f" {'B/A-1':>8s} {'spreadA':>8s} {'spreadB':>8s} {'bound':>6s}"
          f"  verdict")
    all_ok = True
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                print(f"{key[0]:20s} {key[1]:24s} missing")
                all_ok = False
                continue
            row = simulated_row if m["name"] in SIMULATED else host_row
            cols, verdict = row(a[key], b[key], m["bound"],
                                m["better"] == "lower")
            all_ok = all_ok and verdict.startswith("ok")
            print(f"{key[0]:20s} {key[1]:24s}{cols}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
