#!/usr/bin/env python3
"""Fold radio_bench run manifests into the BENCH_run.json perf trajectory.

Reads every ``*.manifest.json`` a ``radio_bench run ... --out DIR`` left in
DIR (schema: DESIGN.md "Observability & provenance") and either

  * validates them (``--check``): each manifest parses, carries the expected
    schema version, and the directory covers all 18 experiment ids; every
    line of ``metrics.jsonl`` is one JSON object, and each manifest has its
    table's row count of row lines plus one summary line — the CI smoke gate
    wired into scripts/ci.sh; or
  * appends one trajectory entry to a ``BENCH_run.json`` file
    (``--bench-json PATH``): per-experiment wall-clock and row counts plus
    shared provenance, the repo's perf record future PRs regress against.

With ``--layers LAYERS_JSON``, the output of

  bench/bench_layers --benchmark_format=json --benchmark_out=LAYERS_JSON

the entry additionally records whichever of these four tables the dump
holds (it is an error when it holds none):

  * ``selection``: {bench, n, ms, rate, unit} rows — the fixed-q Bernoulli
    walk of transmitter selection at q = 1/d over 97% of the nodes, in
    candidates/sec;
  * ``graph_gen``: {path, n, ms, edges/sec} rows — generation throughput of
    the CSR and bitmap producers at d = n^0.75, of the auto cost model at
    d = ln² n (path ``auto``), plus the implicit backend's index-build time
    vs n;
  * ``traversal``: {bench, n, ms, rate, unit} rows — the direction-
    optimizing traversals at d = ln² n: ``is_connected`` in edges/sec and a
    LightSession broadcast (E7's probe loop) in trials/sec;
  * ``batch_sweep``: {n, lanes, trials/sec both ways, speedup} rows — the
    sim/batch instance-parallel core against the per-instance path.

Standard library only; no third-party imports.

Usage:
  python3 scripts/bench_report.py --check OUT_DIR
  python3 scripts/bench_report.py OUT_DIR --bench-json BENCH_run.json \
      [--layers layers.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SCHEMA_VERSION = 1
EXPECTED_IDS = [f"E{i}" for i in range(1, 19)]
REQUIRED_KEYS = (
    "schema_version",
    "id",
    "title",
    "config",
    "provenance",
    "wall_seconds",
    "table",
    "fits",
    "notes",
)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook that rejects a repeated key instead of keeping
    its last value: radio_bench never writes one, so one means a bug."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_json(text: str):
    """Strict parse of one document radio_bench wrote."""
    return json.loads(text, object_pairs_hook=unique_keys)


def load_manifests(out_dir: pathlib.Path) -> dict[str, dict]:
    """Parses every *.manifest.json in out_dir, keyed by experiment id."""
    manifests: dict[str, dict] = {}
    paths = sorted(out_dir.glob("*.manifest.json"))
    if not paths:
        raise SystemExit(f"error: no *.manifest.json files in {out_dir}")
    for path in paths:
        try:
            doc = parse_json(path.read_text())
        except ValueError as err:
            raise SystemExit(f"error: {path} is not valid JSON: {err}")
        missing = [key for key in REQUIRED_KEYS if key not in doc]
        if missing:
            raise SystemExit(f"error: {path} is missing keys {missing}")
        if doc["schema_version"] != SCHEMA_VERSION:
            raise SystemExit(
                f"error: {path} has schema_version {doc['schema_version']},"
                f" expected {SCHEMA_VERSION}")
        if doc["id"] in manifests:
            raise SystemExit(f"error: duplicate manifest for {doc['id']}")
        manifests[doc["id"]] = doc
    return manifests


def check_throughput_gate(doc: dict) -> None:
    """E16's acceptance gate: a row the stability sweep marks stable claims
    the pipeline sustained that arrival rate, so its rate must sit at or
    below the GHK O(1/log n) reference — a stable row above the bound would
    contradict the impossibility result the sweep is checked against."""
    columns = doc["table"]["columns"]
    try:
        rate_col = columns.index("rate")
        bound_col = columns.index("ghk_bound")
        stable_col = columns.index("stable")
    except ValueError as err:
        raise SystemExit(f"error: E16 table is missing a column: {err}")
    for i, row in enumerate(doc["table"]["rows"]):
        if row[stable_col] != "yes":
            continue
        rate, bound = float(row[rate_col]), float(row[bound_col])
        if rate > bound + 1e-9:
            raise SystemExit(
                f"error: E16 row {i} is stable at rate {rate} above the"
                f" GHK bound {bound}")


def check_adversary_gate(doc: dict) -> None:
    """E7's acceptance gate: the guided adversarial search must stay
    consistent — no best-found completion may undercut the unconditional
    diameter bound of its instances, every adversary row must certify a
    witness, and the Thm-8 ``a*ln n + b`` fit must actually fit."""
    columns = doc["table"]["columns"]
    try:
        exp_col = columns.index("experiment")
        best_col = columns.index("best_rounds")
        diam_col = columns.index("diameter")
        witness_col = columns.index("witness")
    except ValueError as err:
        raise SystemExit(f"error: E7 table is missing a column: {err}")
    for i, row in enumerate(doc["table"]["rows"]):
        name = row[exp_col]
        if name.startswith("Thm8"):
            best, diameter = float(row[best_col]), float(row[diam_col])
            if best < diameter - 1e-9:
                raise SystemExit(
                    f"error: E7 row {i} completes in {best} rounds, below"
                    f" its diameter bound {diameter}")
        if not name.startswith("stress") and row[witness_col] == "-":
            raise SystemExit(
                f"error: E7 row {i} ({name}) certifies no witness")
    fits = [f for f in doc["fits"] if "Thm8" in f["label"]]
    if not fits:
        raise SystemExit("error: E7 manifest has no Thm8 fit")
    if fits[0]["r_squared"] < 0.9:
        raise SystemExit(
            f"error: E7 Thm8 fit R^2 {fits[0]['r_squared']:.3f} is below"
            " the 0.9 floor — the guided search lost its ln n linearity")


def check_metrics(path: pathlib.Path, manifests: dict[str, dict]) -> None:
    """metrics.jsonl: every line one JSON object naming a run's experiment;
    per manifest, one row line per table row and exactly one summary line
    whose row count matches the table."""
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    row_lines = {eid: 0 for eid in manifests}
    summaries: dict[str, list] = {eid: [] for eid in manifests}
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            doc = parse_json(line)
        except ValueError as err:
            raise SystemExit(f"error: {path}:{number} is not valid JSON: {err}")
        if not isinstance(doc, dict) or doc.get("experiment") not in manifests:
            raise SystemExit(
                f"error: {path}:{number} is not a metrics object of a"
                " manifest in this directory")
        if doc.get("event") == "summary":
            summaries[doc["experiment"]].append(doc.get("rows"))
        else:
            row_lines[doc["experiment"]] += 1
    for eid, doc in manifests.items():
        rows = len(doc["table"]["rows"])
        if len(summaries[eid]) != 1:
            raise SystemExit(
                f"error: {path} has {len(summaries[eid])} summary lines for"
                f" {eid}, expected 1")
        if row_lines[eid] != rows or summaries[eid][0] != rows:
            raise SystemExit(
                f"error: {path} has {row_lines[eid]} row lines for {eid}"
                f" (summary says {summaries[eid][0]}); its manifest table has"
                f" {rows} rows")


def check(out_dir: pathlib.Path, manifests: dict[str, dict],
          expected_ids: list[str]) -> None:
    """The CI smoke gate: expected experiments present, populated tables,
    metrics.jsonl consistent with the manifests, E7's adversary consistent
    with its diameter bounds and fit floor, and E16's stability sweep
    consistent with the GHK bound."""
    missing = [eid for eid in expected_ids if eid not in manifests]
    if missing:
        raise SystemExit(f"error: manifests missing experiments {missing}")
    extra = [eid for eid in manifests if eid not in expected_ids]
    if extra:
        raise SystemExit(f"error: unexpected experiment ids {extra}")
    for eid, doc in manifests.items():
        if not doc["table"]["rows"]:
            raise SystemExit(f"error: {eid} manifest has an empty table")
        if len(doc["table"]["columns"]) == 0:
            raise SystemExit(f"error: {eid} manifest has no columns")
        if eid == "E7":
            check_adversary_gate(doc)
        if eid == "E16":
            check_throughput_gate(doc)
    check_metrics(out_dir / "metrics.jsonl", manifests)
    print(f"ok: {len(manifests)} manifests valid "
          f"({', '.join(sorted(manifests, key=lambda e: int(e[1:])))})")


def trajectory_entry(manifests: dict[str, dict]) -> dict:
    """One BENCH_run.json entry summarizing a full radio_bench run."""
    ordered = sorted(manifests.values(), key=lambda d: int(d["id"][1:]))
    provenance = ordered[0]["provenance"]
    config = ordered[0]["config"]
    entry = {
        "generated_at": provenance.get("generated_at", "unknown"),
        "git": provenance.get("git", "unknown"),
        "compiler": provenance.get("compiler", "unknown"),
        "openmp_threads": provenance.get("openmp_threads", 0),
        "config": {
            "trials": config.get("trials"),
            "seed": config.get("seed"),
            "quick": config.get("quick"),
        },
        "total_wall_seconds": round(
            sum(d["wall_seconds"] for d in ordered), 3),
        "experiments": {
            d["id"]: {
                "wall_seconds": round(d["wall_seconds"], 3),
                "rows": len(d["table"]["rows"]),
                "fits": [
                    {
                        "label": fit["label"],
                        "model": fit["model"],
                        "r_squared": fit["r_squared"],
                    }
                    for fit in d["fits"]
                ],
            }
            for d in ordered
        },
    }
    return entry


def batch_sweep_rows(doc: dict) -> list[dict]:
    """Pairs BM_BatchSweep/{n}/{lanes} with its BM_PerInstanceSweep/{n}
    baseline from a google-benchmark JSON dump and reports trials/sec and
    the batched-over-per-instance speedup per configuration."""
    per_instance: dict[int, float] = {}
    batched: dict[tuple[int, int], float] = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        rate = bench.get("trials_per_s")
        if not isinstance(rate, (int, float)):
            continue
        parts = name.split("/")
        if parts[0] == "BM_PerInstanceSweep" and len(parts) == 2:
            per_instance[int(parts[1])] = float(rate)
        elif parts[0] == "BM_BatchSweep" and len(parts) == 3:
            batched[(int(parts[1]), int(parts[2]))] = float(rate)
    return [
        {
            "n": n,
            "lanes": lanes,
            "per_instance_trials_per_s": round(per_instance[n], 2),
            "batched_trials_per_s": round(rate, 2),
            "speedup": round(rate / per_instance[n], 2),
        }
        for (n, lanes), rate in sorted(batched.items())
        if n in per_instance and per_instance[n] > 0
    ]


GEN_BENCH_PATHS = {
    "BM_GenerateCsr": "csr",
    "BM_GenerateBitmap": "bitmap",
    "BM_GenerateAuto": "auto",
    "BM_ImplicitIndex": "implicit",
}


def gen_sweep_rows(doc: dict) -> list[dict]:
    """Extracts {path, n, ms, edges/sec} rows from a google-benchmark JSON
    dump — generation time vs n per production path."""
    rows = []
    for bench in doc.get("benchmarks", []):
        parts = bench.get("name", "").split("/")
        if len(parts) != 2 or parts[0] not in GEN_BENCH_PATHS:
            continue
        rate = bench.get("edges_per_s")
        real_time = bench.get("real_time")
        if not isinstance(rate, (int, float)) or \
                not isinstance(real_time, (int, float)):
            continue
        rows.append({
            "path": GEN_BENCH_PATHS[parts[0]],
            "n": int(parts[1]),
            "ms": round(float(real_time), 3),  # benchmark unit is ms
            "edges_per_s": round(float(rate), 2),
        })
    return sorted(rows, key=lambda r: (r["path"], r["n"]))


# Traversal benches and the work-normalised counter each one reports.
TRAVERSAL_BENCHES = {
    "BM_IsConnected": "edges_per_s",
    "BM_LightSessionBroadcast": "trials_per_s",
}

# Selection benches, likewise.
SELECTION_BENCHES = {
    "BM_SampleInformed": "items_per_second",
}


def rate_rows(doc: dict, benches: dict[str, str]) -> list[dict]:
    """Extracts {bench, n, ms, rate, unit} rows of `benches` (bench name ->
    counter) from a google-benchmark JSON dump."""
    rows = []
    for bench in doc.get("benchmarks", []):
        parts = bench.get("name", "").split("/")
        if len(parts) != 2 or parts[0] not in benches:
            continue
        unit = benches[parts[0]]
        rate = bench.get(unit)
        real_time = bench.get("real_time")
        if not isinstance(rate, (int, float)) or \
                not isinstance(real_time, (int, float)):
            continue
        rows.append({
            "bench": parts[0],
            "n": int(parts[1]),
            "ms": round(float(real_time), 6),  # benchmark unit is ms
            "rate": round(float(rate), 2),
            "unit": unit,
        })
    return sorted(rows, key=lambda r: (r["bench"], r["n"]))


def layer_tables(layers_json: pathlib.Path) -> dict[str, list[dict]]:
    """The selection, graph_gen, traversal and batch_sweep tables a
    bench_layers JSON dump holds, keyed by their BENCH_run.json entry names;
    an error when it holds none."""
    try:
        doc = json.loads(layers_json.read_text())
    except json.JSONDecodeError as err:
        raise SystemExit(f"error: {layers_json} is not valid JSON: {err}")
    tables = {"batch_sweep": batch_sweep_rows(doc),
              "graph_gen": gen_sweep_rows(doc),
              "selection": rate_rows(doc, SELECTION_BENCHES),
              "traversal": rate_rows(doc, TRAVERSAL_BENCHES)}
    tables = {name: rows for name, rows in tables.items() if rows}
    if not tables:
        names = [*SELECTION_BENCHES, *GEN_BENCH_PATHS, *TRAVERSAL_BENCHES]
        raise SystemExit(
            f"error: {layers_json} has no {' / '.join(names)}"
            " entries nor pairable BM_BatchSweep / BM_PerInstanceSweep"
            " entries")
    return tables


def append_entry(bench_json: pathlib.Path, entry: dict) -> None:
    if bench_json.exists():
        history = json.loads(bench_json.read_text())
        if not isinstance(history, list):
            raise SystemExit(f"error: {bench_json} is not a JSON array")
    else:
        history = []
    history.append(entry)
    bench_json.write_text(json.dumps(history, indent=2) + "\n")
    print(f"ok: appended entry ({len(entry['experiments'])} experiments, "
          f"{entry['total_wall_seconds']}s) to {bench_json}; "
          f"{len(history)} entries total")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=pathlib.Path,
                        help="directory radio_bench wrote manifests to")
    parser.add_argument("--check", action="store_true",
                        help="validate manifests and exit")
    parser.add_argument("--expect", type=str, default=None,
                        help="comma-separated experiment ids --check should"
                             " require instead of all 18 (e.g. 'E16' for a"
                             " single-experiment smoke run)")
    parser.add_argument("--bench-json", type=pathlib.Path,
                        help="append a trajectory entry to this file")
    parser.add_argument("--layers", type=pathlib.Path,
                        help="bench_layers --benchmark_format=json output"
                             " whose selection, graph_gen, traversal and"
                             " batch_sweep tables to fold into the entry")
    args = parser.parse_args(argv)

    if not args.out_dir.is_dir():
        raise SystemExit(f"error: {args.out_dir} is not a directory")
    manifests = load_manifests(args.out_dir)

    if args.check:
        expected = (args.expect.split(",") if args.expect
                    else EXPECTED_IDS)
        check(args.out_dir, manifests, expected)
        return 0
    if args.bench_json is None:
        raise SystemExit("error: pass --check or --bench-json PATH")
    entry = trajectory_entry(manifests)
    if args.layers is not None:
        entry.update(layer_tables(args.layers))
    append_entry(args.bench_json, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
