#!/usr/bin/env python3
"""A/B the end-to-end benchmark: two ftnoc_bench binaries, pairs in ABBA order.

    python3 tools/bench_ab.py --a PARENT/ftnoc_bench --b CHANGE/ftnoc_bench \\
        --workload fabric_32x32 --pairs 10 --seeds 1-2 --out ab.json

Each run goes through `bench/e2e/run.py --bin`, so both sides use the
benchmark's own harness code and settings (run length included). Pair i
runs A then B when i is even and B then A when i is odd (ABBA order): the
side that runs second tends to be faster, and alternating cancels that.
Pair i uses seed number i modulo the seed list, so every seed in --seeds
appears on both sides of some pair.

For each (workload, metric) the report gives both sides' medians and
quartiles, the pairs B won and lost (ties count for neither), the exact
two-sided sign-test p over the decided pairs, and a verdict:

    gain        B won at least 9/10 of all pairs, and the medians differ,
                in B's favour, by more than A's interquartile range
    unresolved  no gain, and either side's interquartile range exceeds the
                metric's bound in BENCHMARK.json as a share of its median,
                unless every run of B reads better than every run of A
    worse       B's median is worse than A's by more than the bound
    identical   every pair tied (the simulated metrics repeat exactly)
    hold        otherwise: no gain shown, and within the bound

--trace runs the traced pass and reports the per-layer metrics instead.
--out writes every pair's two reports and the results as JSON;
--reanalyze FILE recomputes the results from such a file without running.
The table printed on standard output is markdown, one row per
(workload, metric).
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "bench" / "e2e" / "run.py"

# choosing-metrics section 8: the change must win this share of all pairs.
WIN_SHARE = 0.9


def seeds_of(text):
    """'1-3' -> [1, 2, 3]; '1,5' -> [1, 5]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p for `wins` against `losses`."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def run_once(binary, workload, seed, seconds, trace):
    """One run.py invocation; returns its single report."""
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "run.json"
        cmd = [sys.executable, str(RUN_PY), "--bin", str(binary),
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0", "--out", str(out)]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        runs = json.loads(out.read_text())["runs"] if out.is_file() else []
    if len(runs) != 1:
        sys.exit(f"bench_ab: {binary} {workload} seed {seed}: no report "
                 f"(run.py exited {proc.returncode})")
    return runs[0]


def collect(args, workloads):
    pairs = []
    seeds = seeds_of(args.seeds)
    for workload in workloads:
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = "AB" if i % 2 == 0 else "BA"
            reps = {}
            for side in order:
                binary = args.a if side == "A" else args.b
                reps[side] = run_once(binary, workload, seed, args.seconds,
                                      args.trace)
            print(f"bench_ab: {workload} pair {i + 1}/{args.pairs} seed "
                  f"{seed} {order}", file=sys.stderr, flush=True)
            pairs.append({"workload": workload, "seed": seed, "order": order,
                          "a": reps["A"], "b": reps["B"]})
    return pairs


def analyze(pairs, specs, group):
    """One result per (workload, metric) over the pairs, in run order."""
    results = []
    workloads = list(dict.fromkeys(p["workload"] for p in pairs))
    for workload in workloads:
        mine = [p for p in pairs if p["workload"] == workload]
        for spec in specs:
            name = spec["name"]
            rows = [(p["a"][group][name]["value"], p["b"][group][name]["value"])
                    for p in mine
                    if name in p["a"][group] and name in p["b"][group]]
            if not rows:
                continue
            lower = spec["better"] == "lower"
            a = [r[0] for r in rows]
            b = [r[1] for r in rows]
            wins = sum(1 for x, y in rows if (y < x if lower else y > x))
            losses = sum(1 for x, y in rows if (y > x if lower else y < x))
            qa, qb = quartiles(a), quartiles(b)
            gap = (qa[1] - qb[1]) if lower else (qb[1] - qa[1])
            change = qb[1] / qa[1] - 1 if qa[1] else 0.0
            worse_by = change if lower else -change
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qa, qb))
            better_always = max(b) < min(a) if lower else min(b) > max(a)
            bound = spec.get("bound")
            if wins + losses == 0:
                verdict = "identical"
            elif wins >= WIN_SHARE * len(rows) and gap > qa[2] - qa[0]:
                verdict = "gain"
            elif bound is None:
                verdict = "hold"
            elif spread > bound and not better_always:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "hold"
            results.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "better": spec["better"], "pairs": len(rows),
                "a_median": qa[1], "a_q1": qa[0], "a_q3": qa[2],
                "b_median": qb[1], "b_q1": qb[0], "b_q3": qb[2],
                "change": change, "spread": spread,
                "b_wins": wins, "b_losses": losses,
                "sign_p": sign_test_p(wins, losses), "verdict": verdict})
    return results


def print_table(results):
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | "
          "B/A-1 | spread | B won | sign p | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for r in results:
        ties = r["pairs"] - r["b_wins"] - r["b_losses"]
        print(f"| {r['workload']} | {r['metric']} ({r['unit']}) | "
              f"{r['a_median']:.6g} [{r['a_q1']:.6g}, {r['a_q3']:.6g}] | "
              f"{r['b_median']:.6g} [{r['b_q1']:.6g}, {r['b_q3']:.6g}] | "
              f"{r['change']:+.1%} | {r['spread']:.0%} | "
              f"{r['b_wins']}/{r['pairs']}"
              f"{f' ({ties} tied)' if ties else ''} | "
              f"{r['sign_p']:.3g} | {r['verdict']} |")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", help="the parent's ftnoc_bench")
    ap.add_argument("--b", help="the change's ftnoc_bench")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs per workload (default 10)")
    ap.add_argument("--seeds", default="1",
                    help="seeds the pairs cycle through: 1-3 or 1,5")
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", action="store_true",
                    help="run the traced pass; report per-layer metrics")
    ap.add_argument("--out", help="write pairs and results to this JSON file")
    ap.add_argument("--reanalyze", metavar="FILE",
                    help="recompute the results of an --out file; run nothing")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.reanalyze:
        saved = json.loads(Path(args.reanalyze).read_text())
        pairs, trace = saved["pairs"], saved["trace"]
    else:
        if not args.a or not args.b:
            ap.error("--a and --b are required unless --reanalyze is given")
        if args.pairs < 1:
            ap.error("--pairs must be at least 1")
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        pairs, trace = collect(args, workloads), args.trace
    group = "per_layer" if trace else "end_to_end"
    results = analyze(pairs, spec[group], group)
    print_table(results)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"trace": trace, "pairs": pairs, "results": results},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
