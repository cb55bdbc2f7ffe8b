#!/usr/bin/env python3
"""Regression: plot_bench.py on mixed-schema JSONL (fault-gated columns).

One campaign file can legitimately mix records with and without the
fault-gated counters (packets_rerouted, unreachable_drops): only points
whose config enables permanent faults emit them. The converter must keep
every row and write 0 — not an empty cell, not a crash, not a dropped
row — for a column a row does not have. A line that is not a JSON object
is refused with its path:line.
"""
import csv
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLOT_BENCH = os.path.join(REPO, "tools", "plot_bench.py")

MIXED_JSONL = """\
{"label":"FaultDeg/base/faults=0","avg_latency_cycles":21.5,"messages_ejected":300}
{"label":"FaultDeg/base/faults=1","avg_latency_cycles":24.0,"messages_ejected":298,"packets_rerouted":12,"unreachable_drops":3}
{"label":"FaultDeg/base/faults=2","avg_latency_cycles":29.5,"messages_ejected":290,"packets_rerouted":40,"unreachable_drops":9}
"""

# A fault_storm degradation curve: the converter derives the
# delivered_fraction column (messages_ejected / packets_created) so the
# CSV is directly plottable; rows without packets_created get 0, not a
# divide-by-zero.
STORM_JSONL = """\
{"label":"FaultStorm/adaptive/k=0","packets_created":1000,"messages_ejected":1000}
{"label":"FaultStorm/adaptive/k=2","packets_created":1000,"messages_ejected":950,"storm_kills":"250:1:E,500:5:E","links_storm_killed":2,"unreachable_drops":0}
{"label":"FaultStorm/adaptive/k=4","packets_created":0,"messages_ejected":0}
"""

def convert(td, name, text):
    src = os.path.join(td, name + ".jsonl")
    outdir = os.path.join(td, name + "_csv")
    with open(src, "w") as f:
        f.write(text)
    subprocess.run([sys.executable, PLOT_BENCH, src, outdir], check=True)
    return outdir


def check_fault_columns(td):
    path = os.path.join(convert(td, "mixed", MIXED_JSONL), "faultdeg.csv")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))

    assert len(rows) == 3, f"expected 3 rows, got {len(rows)}"
    by_x = {r["x"]: r for r in rows}
    # The fault-free row gets explicit zeros for the fault-gated columns.
    for col in ("packets_rerouted", "unreachable_drops"):
        assert by_x["0"][col] == "0", (
            f"row faults=0 column {col!r}: expected '0', "
            f"got {by_x['0'][col]!r}")
    # Rows that do have the counters keep their values.
    assert by_x["1"]["packets_rerouted"] == "12"
    assert by_x["2"]["unreachable_drops"] == "9"
    assert by_x["2"]["avg_latency_cycles"] == "29.5"
    assert rows[0]["series"] == "base", rows[0]["series"]


def check_delivered_fraction(td):
    path = os.path.join(convert(td, "storm", STORM_JSONL), "faultstorm.csv")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))

    assert len(rows) == 3, f"expected 3 rows, got {len(rows)}"
    by_x = {r["x"]: r for r in rows}
    assert float(by_x["0"]["delivered_fraction"]) == 1.0
    assert float(by_x["2"]["delivered_fraction"]) == 0.95
    # packets_created == 0 (never-started point): no division, restval 0.
    assert by_x["4"]["delivered_fraction"] == "0"
    # The storm counter backfills 0 on storm-free rows.
    assert by_x["0"]["links_storm_killed"] == "0"
    assert by_x["2"]["links_storm_killed"] == "2"
    # The storm_kills config string is non-numeric and must not leak into
    # the CSV schema.
    assert "storm_kills" not in rows[0], sorted(rows[0])


def check_malformed_line_fails(td):
    # A truncated record (a sweep killed mid-write) must not be dropped
    # silently: the converter exits non-zero and names path:line. A blank
    # line is not an error.
    src = os.path.join(td, "torn.jsonl")
    with open(src, "w") as f:
        f.write('{"label":"Fig6/BC/err=0.001","avg_latency_cycles":21.5}\n'
                "\n"
                '{"label":"Fig6/BC/err=0.01","avg_lat\n')
    proc = subprocess.run(
        [sys.executable, PLOT_BENCH, src, os.path.join(td, "torn_csv")],
        capture_output=True, text=True)
    assert proc.returncode != 0, "malformed line was accepted"
    assert f"{src}:3" in proc.stderr, proc.stderr


def main():
    with tempfile.TemporaryDirectory() as td:
        check_fault_columns(td)
        check_delivered_fraction(td)
        check_malformed_line_fails(td)
    print("plot_bench mixed-schema: OK")


if __name__ == "__main__":
    main()
