#!/usr/bin/env python3
"""Mutation test of tools/check_bench.py's --baseline equality gate.

Usage: check_bench_test.py CHECK_BENCH BASELINE

Writes copies of BASELINE (a checked-in BENCH_edge_cut.json) into a temp
dir, each with one quality drift, and requires the checker to exit 1 with a
violation naming the drifted key. The unmodified copy must pass. Needs no
run_benchmarks output, so it runs in well under a second. Registered as the
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


# (name, mutation, text the violation must contain)
CASES = [
    ("unmodified", None, None),
    ("edge_cut_fraction drift", drift_cut, "edge_cut_fraction"),
    ("deleted restream row", delete_restream_row, "restream"),
    ("config.n changed", change_config_n, "config: n ="),
    ("replication_factor drift", drift_replication, "replication_factor"),
]


def main():
    checker, baseline = sys.argv[1], sys.argv[2]
    with open(baseline, encoding="utf-8") as f:
        base = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, mutate, want in CASES:
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
                    want in line and "baseline" in line
                    for line in out.splitlines()):
                failures.append(f"{name}: no violation names {want!r}\n{out}")
    for failure in failures:
        print(failure)
    print(f"check_bench_test: {len(CASES) - len(failures)}/{len(CASES)} "
          f"cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
