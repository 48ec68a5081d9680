#!/usr/bin/env python3
"""Mutation test of tools/check_bench.py's equality gate and contracts.

Usage: check_bench_test.py CHECK_BENCH BASELINE

Writes copies of BASELINE (a checked-in BENCH_edge_cut.json) into a temp
dir, each with one mutation, and requires the checker to exit 1. A quality
drift must yield a --baseline violation naming the drifted key; a broken
contract must yield a violation naming the rule, so the rule holds without
a baseline too. The unmodified copy must pass. Needs no run_benchmarks
output, so it runs in well under a second. Registered as the
`check_bench_detects_quality_drift` ctest entry.
"""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile


def bump_sixth_digit(value):
    """Moves a %.6g-printed value by one in its sixth significant digit."""
    unit = 10 ** (math.floor(math.log10(abs(value))) - 5)
    return float(f"{value + unit:.6g}")


def drift_cut(d):
    row = d["results"][0]
    row["edge_cut_fraction"] = bump_sixth_digit(row["edge_cut_fraction"])


def delete_restream_row(d):
    del d["restream"][-1]


def change_config_n(d):
    d["config"]["n"] += 1


def drift_replication(d):
    row = next(r for r in d["edge_partition"] if r["tier"] == "in-memory")
    row["replication_factor"] = bump_sixth_digit(row["replication_factor"])


def restream_never_improves(d):
    """Holds every later pass's best cut at the first sequence's pass one."""
    first = min(d["restream"], key=lambda r: r["pass"])
    for r in d["restream"]:
        if (r["graph"], r["partitioner"]) == (first["graph"],
                                              first["partitioner"]):
            r["best_edge_cut_fraction"] = first["edge_cut_fraction"]


def edge_restream_ties_one_pass(d):
    """Gives a 2-pass edge row the rf of its 1-pass row."""
    rows = d["edge_partition"]
    two = next(r for r in rows if r["restream_passes"] == 2)
    one = next(r for r in rows if r["restream_passes"] == 1 and all(
        r[a] == two[a] for a in ("tier", "graph", "partitioner", "lambda")))
    two["replication_factor"] = one["replication_factor"]


def memo_cuts_a_unit_short(d):
    loom = next(r for r in d["large"] if r["partitioner"] == "loom")
    loom["memo_invalidated"] = 1


def memo_misses_a_vertex(d):
    loom = next(r for r in d["large"] if r["partitioner"] == "loom")
    loom["memo_vertices"] -= 1


# (name, mutation, text the violation must contain, whether that violation
# is a --baseline mismatch or a contract rule)
CASES = [
    ("unmodified", None, None, None),
    ("edge_cut_fraction drift", drift_cut, "edge_cut_fraction", "baseline"),
    ("deleted restream row", delete_restream_row, "restream", "baseline"),
    ("config.n changed", change_config_n, "config: n =", "baseline"),
    ("replication_factor drift", drift_replication, "replication_factor",
     "baseline"),
    ("restream never beats pass one", restream_never_improves,
     "not below pass-one cut", "rule"),
    ("edge restream ties one pass", edge_restream_ties_one_pass,
     "not below 1-pass rf", "rule"),
    ("memo cuts a unit short", memo_cuts_a_unit_short,
     "memo_invalidated 1, must be 0", "rule"),
    ("memo misses a vertex", memo_misses_a_vertex, "must recall all", "rule"),
]


def main():
    checker, baseline = sys.argv[1], sys.argv[2]
    with open(baseline, encoding="utf-8") as f:
        base = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, mutate, want, kind in CASES:
            d = copy.deepcopy(base)
            if mutate is not None:
                mutate(d)
            run_dir = os.path.join(tmp, name.replace(" ", "_"))
            os.mkdir(run_dir)
            with open(os.path.join(run_dir, "BENCH_edge_cut.json"), "w",
                      encoding="utf-8") as f:
                json.dump(d, f, indent=2)
            proc = subprocess.run(
                [sys.executable, checker, run_dir, "--baseline", baseline],
                capture_output=True, text=True, check=False)
            out = proc.stdout + proc.stderr
            want_rc = 0 if mutate is None else 1
            if proc.returncode != want_rc:
                failures.append(f"{name}: exit {proc.returncode}, want "
                                f"{want_rc}\n{out}")
            elif want is not None and not any(
                    want in line and (kind == "rule" or "baseline" in line)
                    for line in out.splitlines()):
                failures.append(f"{name}: no violation names {want!r}\n{out}")
    for failure in failures:
        print(failure)
    print(f"check_bench_test: {len(CASES) - len(failures)}/{len(CASES)} "
          f"cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
