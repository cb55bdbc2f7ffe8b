#!/usr/bin/env python3
"""Build the ftnoc_bench harness and run the end-to-end benchmark.

    python3 bench/e2e/run.py --workload paper_8x8 --seed 1 --seconds 10 --trace 0

Each workload runs in its own process. Every metric is printed by name with
its unit; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced pass (--trace 1). The exit code is non-zero when any checked
operation failed.

Without --workload every workload in BENCHMARK.json runs. --seed takes one
seed or a range A-B, --repeat runs each (workload, seed) several times, and
--out saves every run for compare.py. --smoke runs each workload at 1/20 of
its budget and checks that every metric BENCHMARK.json names is reported,
finite and in its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
# The benchmark holds every harness invocation under 30 s.
HARNESS_TIMEOUT_S = 30


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: no simulator sources at {ROOT}; nothing to build")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ftnoc_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)
    return BUILD / "ftnoc_bench"


def trace_file(workload):
    """The traced pass's span file (JSON lines), rewritten by every run."""
    return BUILD / f"{workload}.trace.jsonl"


def run_harness(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload in its own process; returns its JSON report."""
    BUILD.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append(f"--trace={trace_file(workload)}")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                              timeout=HARNESS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} exceeded {HARNESS_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: {workload} seed {seed} exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def finite(metric):
    return isinstance(metric.get("value"), (int, float)) and \
        math.isfinite(metric["value"])


def print_report(rep):
    print(f"{rep['workload']} seed={rep['seed']} passes={rep['passes']} "
          f"ops={rep['ops']} ops_failed={rep['ops_failed']} "
          f"sim_digest={rep['sim_digest']}")
    for failure in rep["failures"]:
        print(f"  FAILED {failure}")
    for group in ("end_to_end", "per_layer"):
        for name, m in rep[group].items():
            extra = ""
            if "n" in m:
                extra = f"  [min {m['min']:.6g}  max {m['max']:.6g}  n={m['n']}]"
            value = f"{m['value']:.6g}" if finite(m) else "NaN"
            print(f"  {name:36s} {value:>14s} {m['unit']}{extra}")


def smoke_problems(rep, spec):
    """What a smoke report lacks against BENCHMARK.json."""
    problems = []
    if rep["ops_failed"]:
        problems.append(f"{rep['ops_failed']} failed operation(s)")
    for group in ("end_to_end", "per_layer"):
        for want in spec[group]:
            got = rep[group].get(want["name"])
            if got is None:
                problems.append(f"{want['name']} missing")
            elif not finite(got):
                problems.append(f"{want['name']} not finite")
            elif got.get("unit") != want["unit"]:
                problems.append(f"{want['name']} unit {got.get('unit')!r}, "
                                f"BENCHMARK.json says {want['unit']!r}")
    trace = trace_file(rep["workload"])
    if not trace.is_file() or trace.stat().st_size == 0:
        problems.append(f"no span file {trace.name}")
    return problems


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", default="1", help="seed or range A-B (default 1)")
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per run (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add the traced pass, report per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per (workload, seed)")
    ap.add_argument("--out", help="write every run's report to this JSON file")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 budget, validate against BENCHMARK.json")
    ap.add_argument("--bin", help="use this ftnoc_bench instead of building")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    binary = Path(args.bin) if args.bin else build()
    trace = args.trace or args.smoke

    reports = []
    attempted = failed = 0
    problems = []
    for workload in workloads:
        for seed in seeds_of(args.seed):
            for _ in range(args.repeat):
                rep = run_harness(binary, workload, seed, seconds, trace,
                                  args.smoke)
                if rep is None:
                    problems.append(f"{workload} seed {seed}: no report")
                    continue
                print_report(rep)
                reports.append(rep)
                attempted += rep["ops"]
                failed += rep["ops_failed"]
                group = "per_layer" if trace else "end_to_end"
                if not all(finite(m) for m in rep[group].values()):
                    problems.append(f"{workload} seed {seed}: non-finite metric")
                if args.smoke:
                    problems += [f"{workload}: {p}"
                                 for p in smoke_problems(rep, spec)]

    if args.out:
        Path(args.out).write_text(json.dumps({"runs": reports}, indent=1) + "\n")
    for p in problems:
        log("run.py:", p)
    correct = not problems and failed == 0 and attempted > 0
    metrics = {}
    if len(reports) == 1:
        group = reports[0]["per_layer" if trace else "end_to_end"]
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in group.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
