#!/usr/bin/env python3
"""Bench contract checker for the BENCH_*.json pair tools/run_benchmarks writes.

Usage: check_bench.py OUT_DIR [--baseline BENCH_micro.json]

OUT_DIR holds BENCH_edge_cut.json and BENCH_micro.json from one
run_benchmarks run (--fast, --full, or --large-file PATH). Every section's
contract from docs/BENCH_SCHEMA.md is checked. The out-of-core rows carry
their provenance in `tier` (`file-backed-ba` when the driver generated the
stream, `file-backed-input` for --large-file), so one set of checks covers
both runs and no mode flag is needed.

--baseline compares the fresh micro loops with a checked-in
BENCH_micro.json and warns, never fails (machines differ), on any loop
more than 25% slower.

Runs as the `bench_driver_test` ctest entry and in CI's bench-smoke job.
Exit status is 1 with one line per violation, 2 on a usage error.
"""

import argparse
import json
import os
import sys

EDGE_CUT_SCHEMA = "loom-bench-edge-cut-v9"
MICRO_SCHEMA = "loom-bench-micro-v3"
FILE_TIERS = ("file-backed-ba", "file-backed-input")
EPS = 1e-9


def load(path):
    """Parses strict JSON: NaN/Infinity tokens are not JSON and fail."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=reject)


def missing_keys(section, rows, need):
    """One error per row lacking a key of `need`, capped at three."""
    errors = [
        f"{section}: row {i} lacks {sorted(need - set(r))}"
        for i, r in enumerate(rows)
        if need - set(r)
    ]
    return errors[:3]


def check_results(d):
    rows = d["results"]
    if not rows:
        return ["results: section empty"]
    errors = missing_keys("results", rows, {
        "graph", "partitioner", "edge_cut_fraction", "balance", "seconds",
        "vertices_per_second", "num_vertices", "num_edges", "peak_rss_bytes"})
    want = {"hash", "ldg", "fennel", "ldg-buffered", "loom", "metis-like"}
    lacking = want - {r["partitioner"] for r in rows}
    if lacking:
        errors.append(f"results: no rows for {sorted(lacking)}")
    return errors


def check_restream(d):
    rows = d["restream"]
    if not rows:
        return ["restream: section empty"]
    errors = missing_keys("restream", rows, {
        "graph", "partitioner", "pass", "ordering", "edge_cut_fraction",
        "best_edge_cut_fraction", "migration_fraction", "overflow_fallbacks"})
    if errors:
        return errors
    if not {"ldg", "fennel", "loom"} <= {r["partitioner"] for r in rows}:
        errors.append("restream: needs ldg, fennel and loom rows")
    # The anytime contract: the best cut never increases over passes.
    for key in sorted({(r["graph"], r["partitioner"]) for r in rows}):
        seq = sorted((r for r in rows if (r["graph"], r["partitioner"]) == key),
                     key=lambda r: r["pass"])
        bests = [r["best_edge_cut_fraction"] for r in seq]
        if any(b > a + 1e-12 for a, b in zip(bests, bests[1:])):
            errors.append(f"restream: best cut rises over passes {key}: {bests}")
    return errors


def check_drift(d):
    rows = {r["strategy"]: r for r in d["drift"]}
    want = {"no-reaction", "drift-reaction", "cold-restream"}
    if not want <= set(rows):
        return [f"drift: strategies {sorted(rows)}, need {sorted(want)}"]
    rx, cold, none = (rows["drift-reaction"], rows["cold-restream"],
                      rows["no-reaction"])
    errors = missing_keys("drift", [rx], {
        "scenario", "max_migration_fraction", "fire_tick", "stationary_fires",
        "post_reaction_fires", "overflow_fallbacks", "forced_placements",
        "assign_errors", "budget_denied_moves"})
    if errors:
        return errors
    # Detector: fired during drift, quiet while stationary, no thrash after
    # the rebase.
    if rx["fire_tick"] < 1:
        errors.append(f"drift: detector never fired (fire_tick {rx['fire_tick']})")
    if rx["stationary_fires"] != 0 or rx["post_reaction_fires"] != 0:
        errors.append("drift: detector fired while stationary or after the "
                      "reaction")
    # Reaction: within 2 cut points of the cold restream, better than no
    # reaction, migrating no more than the budget.
    budget = rx["max_migration_fraction"]
    if budget > 0.25 + EPS:
        errors.append(f"drift: budget {budget} above 0.25")
    if rx["migration_fraction"] > budget + EPS:
        errors.append(f"drift: migration {rx['migration_fraction']} over "
                      f"budget {budget}")
    if rx["edge_cut_fraction"] > cold["edge_cut_fraction"] + 0.02:
        errors.append(f"drift: reaction cut {rx['edge_cut_fraction']} more "
                      f"than 2 points above cold {cold['edge_cut_fraction']}")
    if rx["edge_cut_fraction"] >= none["edge_cut_fraction"]:
        errors.append(f"drift: reaction cut {rx['edge_cut_fraction']} does "
                      f"not beat no-reaction {none['edge_cut_fraction']}")
    # Budgeted migration must never mask capacity pressure.
    for key in ("overflow_fallbacks", "forced_placements", "assign_errors"):
        if rx[key] != 0:
            errors.append(f"drift: reaction {key} = {rx[key]}")
    return errors


def check_serving(d):
    rows = {r["operation"]: r for r in d["serving"]}
    want = {"ingest-batch", "locate", "touches"}
    if not want <= set(rows):
        return [f"serving: operations {sorted(rows)}, need {sorted(want)}"]
    errors = missing_keys("serving", list(rows.values()), {
        "scenario", "count", "p50_seconds", "p99_seconds", "p999_seconds",
        "num_clients", "front_end_shards", "drift_reactions",
        "queries_during_reaction", "assign_errors", "snapshot_epoch"})
    if errors:
        return errors
    for op, r in sorted(rows.items()):
        if r["scenario"] != "serving-under-drift":
            errors.append(f"serving {op}: scenario {r['scenario']!r}")
        if r["count"] <= 0:
            errors.append(f"serving {op}: no samples")
        # Percentiles of one population are ordered by construction.
        if not (r["p50_seconds"] <= r["p99_seconds"] + 1e-12 and
                r["p99_seconds"] <= r["p999_seconds"] + 1e-12):
            errors.append(f"serving {op}: percentiles out of order "
                          f"{r['p50_seconds']}, {r['p99_seconds']}, "
                          f"{r['p999_seconds']}")
        if r["num_clients"] < 4:
            errors.append(f"serving {op}: {r['num_clients']} clients, need 4")
        # Lock-free reads, measured: queries answered while the reaction ran.
        if r["drift_reactions"] < 1 or r["queries_during_reaction"] <= 0:
            errors.append(f"serving {op}: no queries served during a reaction")
        if r["assign_errors"] != 0:
            errors.append(f"serving {op}: assign_errors = {r['assign_errors']}")
    ingest = rows["ingest-batch"]
    if ingest.get("ingested_vertices", 0) <= 0 or \
            ingest.get("vertices_per_second", 0) <= 0:
        errors.append("serving ingest-batch: nothing ingested")
    return errors


def check_large(d):
    rows = d["large"]
    if [r.get("partitioner") for r in rows] != ["ldg", "loom"]:
        return [f"large: need one ldg row then one loom row, got "
                f"{[r.get('partitioner') for r in rows]}"]
    ldg, loom = rows
    errors = missing_keys("large", rows, {
        "tier", "num_vertices", "num_edges", "k", "peak_rss_bytes",
        "rss_ceiling_bytes", "rss_ok"})
    errors += missing_keys("large ldg", [ldg], {
        "file_bytes", "materializations", "edge_cut_fraction_before",
        "edge_cut_fraction_after", "migration_fraction"})
    errors += missing_keys("large loom", [loom], {
        "edge_cut_fraction", "edge_cut_fraction_nomemo"})
    if errors:
        return errors
    tiers = {r["tier"] for r in rows}
    sizes = {r["num_vertices"] for r in rows}
    if len(tiers) != 1 or not tiers <= set(FILE_TIERS):
        errors.append(f"large: tiers {sorted(tiers)}, need one of {FILE_TIERS}")
    if len(sizes) != 1:
        errors.append(f"large: rows disagree on num_vertices {sorted(sizes)}")
    for r in rows:
        name = r["partitioner"]
        # The out-of-core guarantee: peak RSS under the O(V) ceiling.
        if r["rss_ok"] is not True:
            errors.append(f"large {name}: rss_ok is {r['rss_ok']!r}")
        if not 0 < r["peak_rss_bytes"] <= r["rss_ceiling_bytes"]:
            errors.append(f"large {name}: peak RSS {r['peak_rss_bytes']} "
                          f"outside (0, {r['rss_ceiling_bytes']}]")
    if ldg["materializations"] != 0:
        errors.append(f"large ldg: materializations "
                      f"{ldg['materializations']}, must be 0")
    if ldg["file_bytes"] <= 0:
        errors.append(f"large ldg: file_bytes {ldg['file_bytes']}")
    if ldg["edge_cut_fraction_after"] > ldg["edge_cut_fraction_before"] + EPS:
        errors.append(f"large ldg: restream raised the cut "
                      f"{ldg['edge_cut_fraction_before']} -> "
                      f"{ldg['edge_cut_fraction_after']}")
    if not 0 <= ldg["migration_fraction"] <= 1.0:
        errors.append(f"large ldg: migration {ldg['migration_fraction']}")
    # Memoized and cold restreams must land on the same cut.
    gap = abs(loom["edge_cut_fraction"] - loom["edge_cut_fraction_nomemo"])
    if gap > 0.001 + EPS:
        errors.append(f"large loom: memo cut {loom['edge_cut_fraction']} vs "
                      f"no-memo {loom['edge_cut_fraction_nomemo']} "
                      f"differ by {gap:.6f} > 0.001")
    return errors


def check_edge_partition(d):
    rows = d["edge_partition"]
    if not rows:
        return ["edge_partition: section empty"]
    errors = missing_keys("edge_partition", rows, {
        "tier", "graph", "partitioner", "lambda", "k", "restream_passes",
        "num_vertices", "num_edges", "replication_factor", "balance",
        "edges_per_second", "overflow_fallbacks", "cap_relaxations",
        "assign_errors"})
    if errors:
        return errors
    for i, r in enumerate(rows):
        where = f"edge_partition row {i} ({r['tier']} {r['partitioner']})"
        # Every edge placed exactly once, RF >= 1 on a non-empty graph;
        # overflow fallbacks are the only sanctioned balance escape.
        if r["assign_errors"] != 0:
            errors.append(f"{where}: assign_errors = {r['assign_errors']}")
        if r["replication_factor"] < 1.0:
            errors.append(f"{where}: replication factor "
                          f"{r['replication_factor']} < 1")
        if r["edges_per_second"] <= 0:
            errors.append(f"{where}: edges_per_second "
                          f"{r['edges_per_second']}")
        slack = 1.1 + r["k"] / r["num_edges"]
        if r["overflow_fallbacks"] == 0 and r["balance"] > slack + EPS:
            errors.append(f"{where}: balance {r['balance']} above {slack:.4f}")

    memory = {(r["graph"], r["partitioner"], r["lambda"], r["restream_passes"]): r
              for r in rows if r["tier"] == "in-memory"}
    hdrf = memory.get(("barabasi-albert", "hdrf", 1.0, 1))
    dbh = memory.get(("barabasi-albert", "dbh", 1.0, 1))
    if hdrf is None or dbh is None:
        errors.append("edge_partition: no in-memory BA hdrf/dbh rows at λ=1")
    elif hdrf["replication_factor"] > dbh["replication_factor"]:
        # Degree-aware scoring must beat plain degree hashing on power laws.
        errors.append(f"edge_partition: BA rf hdrf {hdrf['replication_factor']}"
                      f" > dbh {dbh['replication_factor']}")

    # The out-of-core rows streamed the large tier's file end to end.
    large_tier = d["large"][0]["tier"]
    large_vertices = d["large"][0]["num_vertices"]
    files = [r for r in rows if r["tier"] in FILE_TIERS]
    if sorted((r["tier"], r["partitioner"]) for r in files) != \
            [(large_tier, "dbh"), (large_tier, "hdrf")]:
        errors.append(f"edge_partition: need one hdrf and one dbh row of tier "
                      f"{large_tier}, got "
                      f"{[(r['tier'], r['partitioner']) for r in files]}")
    else:
        by = {r["partitioner"]: r for r in files}
        for name, r in sorted(by.items()):
            if r["num_vertices"] != large_vertices:
                errors.append(f"edge_partition {large_tier} {name}: "
                              f"{r['num_vertices']} vertices, the large tier "
                              f"has {large_vertices}")
        if by["hdrf"]["replication_factor"] > by["dbh"]["replication_factor"]:
            errors.append(f"edge_partition {large_tier}: rf hdrf "
                          f"{by['hdrf']['replication_factor']} > dbh "
                          f"{by['dbh']['replication_factor']}")

    # Keep-best: a restream never reports a worse rf than its own pass one.
    def axes(r):
        return (r["tier"], r["graph"], r["partitioner"], r["lambda"])

    one_pass = {axes(r): r for r in rows if r["restream_passes"] == 1}
    for r in rows:
        if r["restream_passes"] <= 1:
            continue
        first = one_pass.get(axes(r))
        if first is None:
            errors.append(f"edge_partition: no 1-pass row for restream row "
                          f"{axes(r)}")
        elif r["replication_factor"] > first["replication_factor"]:
            errors.append(f"edge_partition: {r['restream_passes']}-pass rf "
                          f"{r['replication_factor']} > 1-pass rf "
                          f"{first['replication_factor']} at {axes(r)}")
    return errors


def check_micro(m):
    errors = []
    if m.get("schema") != MICRO_SCHEMA:
        errors.append(f"micro: schema {m.get('schema')!r}, want {MICRO_SCHEMA}")
    results = m["results"]
    errors += missing_keys("micro results", results, {
        "name", "iterations", "seconds", "ns_per_op", "ops_per_second",
        "peak_rss_bytes"})
    names = {r.get("name") for r in results}
    # The hot-path loops later changes regression-guard.
    want = {"window_churn", "trie_signature_lookup", "signature_multiply_edge",
            "score_vertices", "match_closure", "hdrf_pick_partition"}
    if not want <= names:
        errors.append(f"micro: loops missing {sorted(want - names)}")
    if any(r.get("iterations", 0) <= 0 for r in results):
        errors.append("micro: a loop ran zero iterations")

    rows = m["throughput"]
    if not rows:
        return errors + ["throughput: section empty"]
    errors += missing_keys("throughput", rows, {
        "family", "partitioner", "num_vertices", "num_edges", "seconds",
        "vertices_per_second", "edges_per_second"})
    if not {"hash", "ldg", "loom"} <= {r.get("partitioner") for r in rows}:
        errors.append("throughput: needs hash, ldg and loom rows")
    if any(r.get("vertices_per_second", 0) <= 0 for r in rows):
        errors.append("throughput: a row has no vertices_per_second")
    return errors


def compare_micro(m, baseline_path):
    """Warns on loops >25% slower than the baseline; never an error."""
    base = {r["name"]: r["ns_per_op"] for r in load(baseline_path)["results"]}
    slower = [
        f"{r['name']}: {base[r['name']]:.0f} -> {r['ns_per_op']:.0f} ns/op "
        f"({r['ns_per_op'] / base[r['name']]:.2f}x)"
        for r in sorted(m["results"], key=lambda r: r["name"])
        if r["name"] in base and r["ns_per_op"] > base[r["name"]] * 1.25
    ]
    for line in slower:
        print(f"::warning title=micro perf regression::{line}")
    if not slower:
        print("check_bench: no micro loop >25% slower than the baseline")


def run_checks(out_dir):
    try:
        d = load(os.path.join(out_dir, "BENCH_edge_cut.json"))
        m = load(os.path.join(out_dir, "BENCH_micro.json"))
    except (OSError, ValueError) as e:
        return [f"unreadable bench output: {e}"], None

    errors = []
    if d.get("schema") != EDGE_CUT_SCHEMA:
        errors.append(f"edge_cut: schema {d.get('schema')!r}, "
                      f"want {EDGE_CUT_SCHEMA}")
    if d.get("mode") not in ("fast", "full"):
        errors.append(f"edge_cut: mode {d.get('mode')!r}")

    checks = (("results", check_results, d), ("restream", check_restream, d),
              ("drift", check_drift, d), ("serving", check_serving, d),
              ("large", check_large, d),
              ("edge_partition", check_edge_partition, d),
              ("micro", check_micro, m))
    for name, check, data in checks:
        # A missing section or mistyped field is one violation, not a crash.
        try:
            errors += check(data)
        except (LookupError, TypeError, ValueError, ZeroDivisionError) as e:
            errors.append(f"{name}: malformed ({type(e).__name__}: {e})")
    return errors, m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory holding BENCH_*.json")
    parser.add_argument("--baseline", help="checked-in BENCH_micro.json to "
                        "compare the micro loops against (warn only)")
    args = parser.parse_args()

    errors, micro = run_checks(args.out_dir)
    for e in errors:
        print(e)
    if errors:
        print(f"check_bench: {len(errors)} violation(s) in {args.out_dir}")
        return 1
    if args.baseline:
        compare_micro(micro, args.baseline)
    print(f"check_bench: every contract holds in {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
