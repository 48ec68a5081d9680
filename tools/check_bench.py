#!/usr/bin/env python3
"""Bench contract checker for the BENCH_edge_cut.json run_benchmarks writes.

Usage: check_bench.py OUT_DIR [--baseline BENCH_edge_cut.json]

OUT_DIR holds BENCH_edge_cut.json from one run_benchmarks run (--fast,
--full, or --large-file PATH). Every section's contract from
docs/BENCH_SCHEMA.md is checked. The out-of-core rows carry their
provenance in `tier` (`file-backed-ba` when the driver generated the
stream, `file-backed-input` for --large-file), so one set of checks covers
both runs and no mode flag is needed.

--baseline requires the run to equal a checked-in BENCH_edge_cut.json:
the same schema, mode and config, and every row of every section equal to
the baseline's row on every key. The file holds no timings, so any
difference is a behaviour change. Rows are matched on their axes (graph,
partitioner, pass, strategy, tier, ...); a missing or extra row is a
violation. Rows of a tier only one file has are skipped: a --large-file
run's `file-backed-input` rows have no baseline counterpart, and the
baseline's `file-backed-ba` rows none in that run.

Runs as the `bench_driver_test` ctest entry and in CI's bench-smoke job.
Exit status is 1 with one line per violation, 2 on a usage error.
"""

import argparse
import json
import os
import sys

EDGE_CUT_SCHEMA = "loom-bench-edge-cut-v10"
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
        "graph", "partitioner", "edge_cut_fraction", "balance", "num_vertices",
        "num_edges"})
    want = {"hash", "ldg", "fennel", "loom", "metis-like"}
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
    # The anytime contract: the best cut never increases over passes, and
    # restreaming beats pass one.
    for key in sorted({(r["graph"], r["partitioner"]) for r in rows}):
        seq = sorted((r for r in rows if (r["graph"], r["partitioner"]) == key),
                     key=lambda r: r["pass"])
        bests = [r["best_edge_cut_fraction"] for r in seq]
        if any(b > a + 1e-12 for a, b in zip(bests, bests[1:])):
            errors.append(f"restream: best cut rises over passes {key}: {bests}")
        first = seq[0]["edge_cut_fraction"]
        if not bests[-1] < first:
            errors.append(f"restream: final best cut {bests[-1]} not below "
                          f"pass-one cut {first} at {key}")
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


def check_large(d):
    rows = d["large"]
    if [r.get("partitioner") for r in rows] != ["ldg", "loom"]:
        return [f"large: need one ldg row then one loom row, got "
                f"{[r.get('partitioner') for r in rows]}"]
    ldg, loom = rows
    errors = missing_keys("large", rows, {
        "tier", "num_vertices", "num_edges", "k", "rss_ceiling_bytes",
        "rss_ok"})
    errors += missing_keys("large ldg", [ldg], {
        "file_bytes", "materializations", "edge_cut_fraction_before",
        "edge_cut_fraction_after", "migration_fraction"})
    errors += missing_keys("large loom", [loom], {
        "edge_cut_fraction", "edge_cut_fraction_nomemo", "memo_vertices",
        "memo_invalidated"})
    if errors:
        return errors
    tiers = {r["tier"] for r in rows}
    sizes = {r["num_vertices"] for r in rows}
    if len(tiers) != 1 or not tiers <= set(FILE_TIERS):
        errors.append(f"large: tiers {sorted(tiers)}, need one of {FILE_TIERS}")
    if len(sizes) != 1:
        errors.append(f"large: rows disagree on num_vertices {sorted(sizes)}")
    for r in rows:
        # The out-of-core guarantee: peak RSS under the O(V) ceiling (the
        # driver exits 1 above it, so a written row always says true).
        if r["rss_ok"] is not True:
            errors.append(f"large {r['partitioner']}: rss_ok is "
                          f"{r['rss_ok']!r}")
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
    # A memoized pass replays the stream its memo was recorded from, one
    # unit at a time: it recalls every vertex and cuts no unit short.
    if loom["memo_invalidated"] != 0:
        errors.append(f"large loom: memo_invalidated "
                      f"{loom['memo_invalidated']}, must be 0")
    if loom["memo_vertices"] != loom["num_vertices"]:
        errors.append(f"large loom: memo recalled {loom['memo_vertices']} "
                      f"of {loom['num_vertices']} vertices, must recall all")
    return errors


def check_edge_partition(d):
    rows = d["edge_partition"]
    if not rows:
        return ["edge_partition: section empty"]
    errors = missing_keys("edge_partition", rows, {
        "tier", "graph", "partitioner", "lambda", "k", "restream_passes",
        "num_vertices", "num_edges", "replication_factor", "balance",
        "overflow_fallbacks", "cap_relaxations", "assign_errors"})
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

    # Restreaming beats pass one: a restream row's kept-best rf is strictly
    # below the rf of the 1-pass row with the same axes.
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
        elif not r["replication_factor"] < first["replication_factor"]:
            errors.append(f"edge_partition: {r['restream_passes']}-pass rf "
                          f"{r['replication_factor']} not below 1-pass rf "
                          f"{first['replication_factor']} at {axes(r)}")
    return errors


def run_checks(d):
    errors = []
    if d.get("schema") != EDGE_CUT_SCHEMA:
        errors.append(f"edge_cut: schema {d.get('schema')!r}, "
                      f"want {EDGE_CUT_SCHEMA}")
    if d.get("mode") not in ("fast", "full"):
        errors.append(f"edge_cut: mode {d.get('mode')!r}")

    checks = (("results", check_results), ("restream", check_restream),
              ("drift", check_drift), ("large", check_large),
              ("edge_partition", check_edge_partition))
    for name, check in checks:
        # A missing section or mistyped field is one violation, not a crash.
        try:
            errors += check(d)
        except (LookupError, TypeError, ValueError, ZeroDivisionError) as e:
            errors.append(f"{name}: malformed ({type(e).__name__}: {e})")
    return errors


# The keys that identify a row within its section: rows are matched on them
# and violations name them.
AXES = {
    "large": ("tier", "partitioner"),
    "results": ("graph", "partitioner"),
    "restream": ("graph", "partitioner", "pass"),
    "drift": ("strategy",),
    "edge_partition": ("tier", "graph", "partitioner", "lambda",
                       "restream_passes"),
}
HEADER = ("schema", "mode", "config")
MISSING = "<missing>"


def key_diffs(name, run, want):
    """One violation per key whose value differs between two objects."""
    return [f"{name}: {k} = {run.get(k, MISSING)!r}, baseline "
            f"{want.get(k, MISSING)!r}"
            for k in sorted(set(run) | set(want))
            if run.get(k, MISSING) != want.get(k, MISSING)]


def file_tiers(doc):
    return {r.get("tier") for s in AXES for r in doc.get(s) or []
            if isinstance(r, dict) and r.get("tier") in FILE_TIERS}


def index_rows(section, rows, shared_file_tiers, errors):
    """Maps each row's axes to the row, skipping file tiers one file lacks."""
    if not isinstance(rows, list):
        errors.append(f"{section}: not an array of rows")
        return {}
    out = {}
    for r in rows:
        if not isinstance(r, dict):
            errors.append(f"{section}: row {r!r} is not an object")
            continue
        if r.get("tier") in FILE_TIERS and r["tier"] not in shared_file_tiers:
            continue
        axes = " ".join([section] + [f"{a}={r[a]}" for a in AXES[section]
                                     if a in r])
        if axes in out:
            errors.append(f"{axes}: duplicate row")
        out[axes] = r
    return out


def compare(d, base):
    """One violation per key on which the run differs from the baseline."""
    errors = []
    for key in HEADER:
        run, want = d.get(key, MISSING), base.get(key, MISSING)
        if isinstance(run, dict) and isinstance(want, dict):
            errors += key_diffs(key, run, want)
        elif run != want:
            errors.append(f"{key}: {run!r}, baseline {want!r}")
    if errors:
        return errors  # a different configuration: a row diff is noise

    # A --large-file run's file-backed-input rows have no baseline
    # counterpart, and the baseline's file-backed-ba rows none in that run.
    shared = file_tiers(d) & file_tiers(base)
    for section in sorted((set(d) | set(base)) - set(HEADER)):
        if section not in AXES:
            errors.append(f"{section}: unknown section")
            continue
        run = index_rows(section, d.get(section, []), shared, errors)
        want = index_rows(section, base.get(section, []), shared, errors)
        for name in list(want) + [a for a in run if a not in want]:
            if name not in run:
                errors.append(f"{name}: baseline row missing from the run")
            elif name not in want:
                errors.append(f"{name}: row not in the baseline")
            else:
                errors += key_diffs(name, run[name], want[name])
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory holding "
                        "BENCH_edge_cut.json")
    parser.add_argument("--baseline", help="checked-in BENCH_edge_cut.json "
                        "the run must equal on every key")
    args = parser.parse_args()

    try:
        d = load(os.path.join(args.out_dir, "BENCH_edge_cut.json"))
        base = load(args.baseline) if args.baseline else None
    except (OSError, ValueError) as e:
        errors = [f"unreadable bench output: {e}"]
    else:
        errors = run_checks(d)
        if base is not None:
            errors += compare(d, base)
    for e in errors:
        print(e)
    if errors:
        print(f"check_bench: {len(errors)} violation(s) in {args.out_dir}")
        return 1
    against = f", equal to {args.baseline}" if args.baseline else ""
    print(f"check_bench: every contract holds in {args.out_dir}{against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
