#!/usr/bin/env python3
"""Regression: tools/bench_ab.py's run order, statistics and verdicts.

The runs themselves are faked: collect() is driven with a stand-in for
run_once() that records the order it is called in, and the analysis is
checked over canned reports through the --reanalyze command line.
"""
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from types import SimpleNamespace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_AB = os.path.join(REPO, "tools", "bench_ab.py")

spec = importlib.util.spec_from_file_location("bench_ab", BENCH_AB)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)


def report(setup_s, ns, wall_s, latency):
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ns_per_router_cycle": {"value": ns, "unit": "ns"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "sim_latency_avg_cycles": {"value": latency, "unit": "cycles"},
        "delivered_fraction": {"value": 0.9, "unit": "fraction"},
    }
    return {"end_to_end": e2e}


def check_abba_order():
    calls = []

    def fake_run_once(binary, workload, seed, seconds, trace):
        calls.append((binary, seed))
        return report(1.0, 1.0, 1.0, 1.0)

    bench_ab.run_once = fake_run_once
    args = SimpleNamespace(a="A", b="B", pairs=4, seeds="1-2", seconds=None,
                           trace=False)
    pairs = bench_ab.collect(args, ["w"])
    assert calls == [("A", 1), ("B", 1), ("B", 2), ("A", 2),
                     ("A", 1), ("B", 1), ("B", 2), ("A", 2)], calls
    assert [p["order"] for p in pairs] == ["AB", "BA", "AB", "BA"]
    assert [p["seed"] for p in pairs] == [1, 2, 1, 2]


def check_statistics():
    assert bench_ab.seeds_of("1-3") == [1, 2, 3]
    assert bench_ab.seeds_of("1,5") == [1, 5]
    # 10 of 10: p = 2 / 2^10.
    assert bench_ab.sign_test_p(10, 0) == 2 / 1024
    assert bench_ab.sign_test_p(0, 10) == 2 / 1024
    # 9 of 10: p = 2 * (1 + 10) / 2^10.
    assert abs(bench_ab.sign_test_p(9, 1) - 22 / 1024) < 1e-15
    assert bench_ab.sign_test_p(5, 5) == 1.0
    assert bench_ab.sign_test_p(0, 0) == 1.0


def canned_pairs():
    pairs = []
    for i in range(10):
        # setup_s: B clearly faster in every pair (a gain).
        # ns_per_router_cycle: B wins 5 of 10 by a hair (hold).
        # wall_s: B 50% slower in every pair (worse than the 0.24 bound).
        # sim_latency_avg_cycles: exactly equal (identical).
        # delivered_fraction: B loses by 1% with a 40% spread (unresolved).
        a = report(8.0 + 0.1 * i, 400.0, 10.0 + 0.01 * i, 85.1)
        b = report(5.0 + 0.1 * i, 400.0 + (1 if i % 2 else -1), 15.0, 85.1)
        a["end_to_end"]["delivered_fraction"]["value"] = 0.5 + 0.05 * i
        b["end_to_end"]["delivered_fraction"]["value"] = 0.495 + 0.05 * i
        pairs.append({"workload": "fabric_32x32", "seed": 1 + i % 2,
                      "order": "AB" if i % 2 == 0 else "BA", "a": a, "b": b})
    # One pair where B's setup loses: 9/10 still counts as a gain.
    pairs[3]["b"]["end_to_end"]["setup_s"]["value"] = 9.0
    return pairs


def check_verdicts(td):
    saved = os.path.join(td, "canned.json")
    out = os.path.join(td, "out.json")
    with open(saved, "w") as f:
        json.dump({"trace": False, "pairs": canned_pairs()}, f)
    proc = subprocess.run(
        [sys.executable, BENCH_AB, "--reanalyze", saved, "--out", out],
        check=True, capture_output=True, text=True)
    with open(out) as f:
        results = {r["metric"]: r for r in json.load(f)["results"]}

    setup = results["setup_s"]
    assert setup["verdict"] == "gain", setup
    assert (setup["b_wins"], setup["b_losses"], setup["pairs"]) == (9, 1, 10)
    assert abs(setup["sign_p"] - 22 / 1024) < 1e-15
    assert results["ns_per_router_cycle"]["verdict"] == "hold"
    assert results["ns_per_router_cycle"]["b_wins"] == 5
    assert results["wall_s"]["verdict"] == "worse"
    assert results["sim_latency_avg_cycles"]["verdict"] == "identical"
    assert results["delivered_fraction"]["verdict"] == "unresolved"
    # The markdown table has a header, a rule and one row per metric.
    rows = [l for l in proc.stdout.splitlines() if l.startswith("| fabric")]
    assert len(rows) == len(results), proc.stdout

    # Two pairs lost: 8/10 is short of the 9/10 rule, whatever the gap, and
    # the two outliers widen B's spread past the 0.25 bound.
    pairs = canned_pairs()
    pairs[5]["b"]["end_to_end"]["setup_s"]["value"] = 9.0
    with open(saved, "w") as f:
        json.dump({"trace": False, "pairs": pairs}, f)
    subprocess.run([sys.executable, BENCH_AB, "--reanalyze", saved, "--out",
                    out], check=True, capture_output=True)
    with open(out) as f:
        results = {r["metric"]: r for r in json.load(f)["results"]}
    assert results["setup_s"]["verdict"] == "unresolved", results["setup_s"]


def main():
    check_abba_order()
    check_statistics()
    with tempfile.TemporaryDirectory() as td:
        check_verdicts(td)
    print("bench_ab regression: OK")


if __name__ == "__main__":
    main()
