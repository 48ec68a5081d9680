#!/usr/bin/env python3
"""The repository benchmark: builds benchmark/ and runs its workloads.

    python3 benchmark/run.py                      # all workloads, end-to-end
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --trace              # per-layer numbers + traces
    python3 benchmark/run.py --runs 5 --sets 2    # repeatability report
    python3 benchmark/run.py --scale smoke        # every workload at n/64

Each workload runs in a fresh process of build-bench/loom_benchmark. Every
end-to-end metric is printed as `workload metric value unit`, and the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is non-zero when a correctness or
input-fingerprint check fails. See benchmark/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD_DIR, "loom_benchmark")
WORKLOADS = ["motif-stream", "lookup-stream", "file-restream", "edge-stream",
             "serve-drift"]
# A workload run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


class BenchmarkError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchmarkError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds build-bench/ in Release from source."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchmarkError(f"no library sources under {ROOT}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)])


def run_build_step(cmd):
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        raise BenchmarkError(f"build step failed: {' '.join(cmd)}")


def run_workload(binary, workload, seed, seconds, trace, scale):
    """One workload in a fresh process; returns its parsed report."""
    for sub in ("data", "traces"):
        os.makedirs(os.path.join(BUILD_DIR, sub), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--scale", scale,
           "--out", BUILD_DIR]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        log(p.stderr[-4000:])
        raise BenchmarkError(f"{workload}: exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: printed no report")
    return json.loads(lines[-1])


def verify(report, spec, fingerprints, scale, trace):
    """Failed-check messages for one report (empty when correct)."""
    problems = [f"check failed: {c['name']} ({c['detail']})"
                for c in report["checks"] if not c["ok"]]
    w, seed = report["workload"], str(report["seed"])
    expected = fingerprints.get(scale, {}).get(w, {}).get(seed)
    if expected is not None and expected != report["fingerprint"]:
        problems.append(f"input fingerprint {report['fingerprint']} != "
                        f"recorded {expected}: the generated inputs changed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layers"] if trace else report["metrics"]
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["value"] is None or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} missing or not finite")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} unit {got['unit']} != "
                            f"{m['unit']}")
        elif not trace and got["value"] <= 0:
            problems.append(f"metric {m['name']} is {got['value']}")
    if report["attempted"] < 1:
        problems.append("no operation attempted")
    return problems


def selected_metrics(report, spec, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layers"] if trace else report["metrics"]
    return {m["name"]: {"value": source[m["name"]]["value"],
                        "unit": m["unit"]}
            for m in wanted if m["name"] in source}


def write_layer_summary(report):
    path = os.path.join(BUILD_DIR, "traces",
                        f"layers-{report['workload']}.json")
    summary = {
        "workload": report["workload"],
        "seed": report["seed"],
        "chrome_trace": report["trace_path"],
        "layers": report["layers"],
        "self_seconds": {k[len("self_s."):]: v["value"]
                         for k, v in report["details"].items()
                         if k.startswith("self_s.")},
        "details": {k: v for k, v in report["details"].items()
                    if not k.startswith("self_s.")},
    }
    with open(path, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return path


def print_report(report, spec, trace):
    w = report["workload"]
    metrics = report["metrics"]
    for m in spec["end_to_end"]:
        got = metrics.get(m["name"])
        if got is not None:
            samples = f"  ({got['samples']} repeats)" if got["samples"] \
                else ""
            print(f"{w} {m['name']} {got['value']:.6g} {m['unit']}{samples}")
    for name, got in sorted(report["details"].items()):
        if not name.startswith("self_s."):
            print(f"{w} {name} {got['value']:.6g} {got['unit']}  (detail)")
    if trace:
        for name, got in sorted(report["layers"].items()):
            print(f"{w} {name} {got['value']:.6g} {got['unit']}  "
                  f"-> {got['moves']}")
    print(f"{w} fingerprint {report['fingerprint']} seed {report['seed']}")


def quartile_spread(values):
    """(median, IQR / median, (max - min) / median) of `values`."""
    median = statistics.median(values)
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        iqr = q[2] - q[0]
    else:
        iqr = 0.0
    scale = abs(median) if median else 1.0
    return median, iqr / scale, (max(values) - min(values)) / scale


def repeatability(args, spec, fingerprints, binary):
    """--runs N [--sets K]: K sets of N runs (seeds seed..seed+N-1 each)."""
    workloads = [args.workload] if args.workload else WORKLOADS
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    quality = ("ipt", "edge_cut", "replication_factor")
    summary = {"runs": args.runs, "sets": args.sets, "seconds": args.seconds,
               "scale": args.scale, "environment": environment(),
               "workloads": {}}
    ok = True
    for w in workloads:
        sets = []
        seen = {}
        for s in range(args.sets):
            values = {name: [] for name in bounds}
            for i in range(args.runs):
                report = run_workload(binary, w, args.seed + i, args.seconds,
                                      False, args.scale)
                problems = verify(report, spec, fingerprints, args.scale,
                                  False)
                for p in problems:
                    log(f"{w} seed {args.seed + i}: {p}")
                ok = ok and not problems
                seen[str(args.seed + i)] = report["fingerprint"]
                for name in bounds:
                    values[name].append(report["metrics"][name]["value"])
            sets.append(values)
        rows = {}
        for name, m in bounds.items():
            row = {"unit": m["unit"], "bound": m["bound"], "sets": []}
            for values in sets:
                median, iqr, spread = quartile_spread(values[name])
                row["sets"].append({"values": values[name], "median": median,
                                    "iqr_frac": iqr, "range_frac": spread})
                flag = ""
                if name != "setup_s" and iqr > m["bound"]:
                    flag = "  IQR ABOVE BOUND"
                    ok = False
                print(f"{w} {name} median {median:.6g} {m['unit']} "
                      f"IQR {100 * iqr:.2f}% range {100 * spread:.2f}% "
                      f"bound {100 * m['bound']:.1f}%{flag}")
            if len(sets) > 1:
                first = row["sets"][0]["median"]
                for later in row["sets"][1:]:
                    worse = (later["median"] - first) / abs(first)
                    if m["better"] == "higher":
                        worse = -worse
                    agree = worse <= m["bound"]
                    if name in quality:
                        agree = agree and later["values"] == \
                            row["sets"][0]["values"]
                    ok = ok and agree
                    print(f"{w} {name} set medians {first:.6g} vs "
                          f"{later['median']:.6g} "
                          f"({'agree' if agree else 'DISAGREE'})")
            rows[name] = row
        summary["workloads"][w] = rows
        summary.setdefault("fingerprints", {})[w] = seen
    path = os.path.join(BUILD_DIR, "runs-summary.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    log(f"summary written to {path}")
    return ok


def environment():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = ""
    try:
        compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    parser.add_argument("--runs", type=int, default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--no-build", action="store_true")
    parser.add_argument("--binary", default=BINARY)
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    fingerprints = load_json(os.path.join(BENCH_DIR, "fingerprints.json"))
    if args.seconds is None:
        args.seconds = 1 if args.scale == "smoke" else spec["run_seconds"]
    if not args.no_build:
        build()
    if not os.access(args.binary, os.X_OK):
        raise BenchmarkError(f"no benchmark binary at {args.binary}")

    if args.runs > 0:
        return 0 if repeatability(args, spec, fingerprints, args.binary) \
            else 1

    trace = args.trace == "1"
    workloads = [args.workload] if args.workload else WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        report = run_workload(args.binary, w, args.seed, args.seconds, trace,
                              args.scale)
        problems = verify(report, spec, fingerprints, args.scale, trace)
        for p in problems:
            log(f"{w}: {p}")
        correct = correct and not problems
        attempted += report["attempted"]
        failed += report["failed"]
        print_report(report, spec, trace)
        if trace:
            print(f"{w} layer summary {write_layer_summary(report)}")
            print(f"{w} chrome trace {report['trace_path']}")
        selected = selected_metrics(report, spec, trace)
        if len(workloads) == 1:
            metrics = selected
        else:
            metrics.update({f"{w}.{k}": v for k, v in selected.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as e:
        log(f"benchmark: {e}")
        sys.exit(2)
