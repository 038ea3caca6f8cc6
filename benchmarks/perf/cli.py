"""Command line of the benchmark.

Run every workload (timed phase, then traced phase)::

    PYTHONPATH=src python -m benchmarks.perf --seed 42 --out RESULT.json

Run one workload's timed (``--trace 0``) or traced (``--trace 1``)
phase for a time budget; the last line of output is one JSON object::

    python3 benchmarks/perf/run.py --workload flash-commit --seed 1 --seconds 25 --trace 0

Regenerate ``golden.json`` (an edit of the benchmark)::

    PYTHONPATH=src python -m benchmarks.perf golden

Compare invocations of two commits::

    PYTHONPATH=src python -m benchmarks.perf compare BASE.json... -- CHANGE.json...
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from typing import Dict, List, Optional

from repro.harness.runner import run_experiment

from benchmarks.perf import compare
from benchmarks.perf.layers import LAYERS
from benchmarks.perf.timing import Timed, WorkerError, measure, traced
from benchmarks.perf.workloads import (
    GOLDEN_PATH, GOLDEN_SEEDS, PIN_SEED, SMOKE_GOLDEN_SEEDS, SMOKE_SCALE, WORKLOADS, Workload,
    fingerprint, load_declaration, load_goldens,
)

SCHEMA = "benchmarks.perf/v1"
#: Timed rounds of a run without a time budget.
ROUNDS = 5
#: Minimum timed rounds when ``--seconds`` sets the budget: two keep a
#: slow host from stretching a run far past its budget.
MIN_ROUNDS = 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="End-to-end and per-layer host-time benchmark of the simulator "
                    "(subcommands: golden, compare).",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload generator seed")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help=f"time budget of each phase per invocation (0: {ROUNDS} timed "
                             "rounds and one traced pair)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run only the timed (0) or the traced (1) phase")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SCALE:.0%} cycle budgets and one round (self-test size)")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--trace-dir", help="write each traced run's spans here as Chrome JSON")
    return parser


def end_to_end(timed: Timed) -> Dict[str, float]:
    """Medians over the timed repeats.

    Host times are in reference-host seconds (see ``SpeedProbe``);
    ``raw_*`` are the same medians as measured.  Metrics named
    ``sim_`` are simulated, not host, quantities.
    """
    repeats = timed.repeats
    return {
        "wall_s": statistics.median(r["wall_s"] for r in repeats),
        "sim_kcycles_per_s": statistics.median(r["cycles"] / 1000 / r["wall_s"] for r in repeats),
        "commits_per_s": statistics.median(r["commits"] / r["wall_s"] for r in repeats),
        "setup_s": statistics.median(ref for ref, _ in timed.setup_s),
        "peak_rss_mb": timed.peak_rss_mb,
        "sim_commits_per_mcycle": statistics.median(
            r["commits"] * 1e6 / r["cycles"] for r in repeats),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in repeats),
        "raw_setup_s": statistics.median(raw for _, raw in timed.setup_s),
    }


def _check(entry: dict, workload: Workload, seed: int, scale: float, fingerprints: List[str],
           reference: Optional[str], goldens: Dict[str, str]) -> None:
    """Count runs whose fingerprint differs from the expected one.

    Expected is the pinned golden, else the unarmed twin's run, else the
    first repeat (repeats must agree).
    """
    candidates = fingerprints + ([reference] if reference is not None else [])
    if not candidates:
        return
    expected = goldens.get(workload.golden_key(seed, scale)) or reference or candidates[0]
    mismatched = sum(fp != expected for fp in candidates)
    entry["attempted"] += len(candidates)
    entry["failed"] += mismatched
    entry["fingerprint"] = expected
    if mismatched:
        entry["errors"].append(f"{mismatched} of {len(candidates)} runs differ from "
                               f"fingerprint {expected}")


def _check_pin(entry: dict, workload: Workload, pinned: Optional[str],
               goldens: Dict[str, str]) -> None:
    """Count the ``PIN_SEED`` run as failed unless it matches its golden.

    None means the worker raised, which is already counted.
    """
    if pinned is None:
        return
    expected = goldens[workload.golden_key(PIN_SEED, SMOKE_SCALE)]
    if pinned == expected:
        entry["attempted"] += 1
    else:
        _fail(entry, f"seed {PIN_SEED} at smoke scale: fingerprint {pinned} differs from "
                     f"the pinned {expected}")


def _fail(entry: dict, error: str) -> None:
    entry["attempted"] += 1
    entry["failed"] += 1
    entry["errors"].append(error)


def run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    scale = SMOKE_SCALE if args.smoke else 1.0
    rounds = 1 if args.smoke else (MIN_ROUNDS if args.seconds else ROUNDS)
    goldens = load_goldens()
    entries = {name: {"attempted": 0, "failed": 0, "errors": []} for name in names}
    report = {
        "schema": SCHEMA, "seed": args.seed, "scale": scale, "seconds": args.seconds,
        "host": {"python": platform.python_version(), "platform": platform.platform(),
                 "cpus": os.cpu_count()},
        "workloads": entries,
    }
    if args.trace != 1:
        timed = measure(names, args.seed, scale, rounds, args.seconds)
        for name in names:
            entry, samples = entries[name], timed[name]
            for error in samples.errors:
                _fail(entry, error)
            _check_pin(entry, WORKLOADS[name], samples.pinned, goldens)
            _check(entry, WORKLOADS[name], args.seed, scale,
                   [r["fingerprint"] for r in samples.repeats], samples.reference, goldens)
            if samples.repeats:
                entry["end_to_end"] = end_to_end(samples)
                entry["repeats"] = [{key: r[key] for key in ("wall_s", "raw_wall_s", "probes")}
                                    for r in samples.repeats]
                entry["setup_s_samples"] = samples.setup_s
    if args.trace != 0:
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
        for name in names:
            entry = entries[name]
            path = os.path.join(args.trace_dir, f"{name}.json") if args.trace_dir else None
            try:
                result = traced(name, args.seed, scale, args.seconds, path)
            except WorkerError as error:
                _fail(entry, str(error))
                continue
            _check_pin(entry, WORKLOADS[name], result["pinned"], goldens)
            _check(entry, WORKLOADS[name], args.seed, scale, result["fingerprints"], None,
                   goldens)
            if result["export_error"] is not None:
                _fail(entry, f"chrome trace {path}: {result['export_error']}")
            entry["per_layer"] = result["metrics"]
    for entry in entries.values():
        entry.setdefault("end_to_end", {})["error_rate"] = (
            entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0)
    observed, unarmed = entries.get("observed"), entries.get("flash-commit")
    if observed and unarmed and "wall_s" in observed["end_to_end"] and \
            "wall_s" in unarmed["end_to_end"]:
        report["obs.armed_overhead_x"] = (
            observed["end_to_end"]["wall_s"] / unarmed["end_to_end"]["wall_s"])
    _print_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    print(json.dumps(_summary_line(report, args.trace)))
    return 0 if all(entry["failed"] == 0 for entry in entries.values()) else 1


def _units() -> Dict[str, str]:
    declaration = load_declaration()
    units = {m["name"]: m["unit"] for m in declaration["end_to_end"] + declaration["per_layer"]}
    units.update(error_rate="ratio", raw_wall_s="s", raw_setup_s="s")
    return units


def _summary_line(report: dict, trace: Optional[int]) -> dict:
    """The final JSON line: correctness and the declared metrics.

    Metric names are bare for one workload, else ``workload/metric``.
    """
    declaration = load_declaration()
    declared = []
    if trace != 1:
        declared += declaration["end_to_end"]
    if trace != 0:
        declared += declaration["per_layer"]
    entries = report["workloads"]
    metrics = {}
    for name, entry in entries.items():
        values = {**entry.get("end_to_end", {}), **entry.get("per_layer", {})}
        for metric in declared:
            if metric["name"] in values:
                key = metric["name"] if len(entries) == 1 else f"{name}/{metric['name']}"
                metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    attempted = sum(entry["attempted"] for entry in entries.values())
    failed = sum(entry["failed"] for entry in entries.values())
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print_report(report: dict) -> None:
    units = _units()
    for name, entry in report["workloads"].items():
        workload = WORKLOADS[name]
        print(f"== {name}: {workload.golden_key(report['seed'], report['scale'])}"
              f"{' (armed)' if workload.armed else ''}; "
              f"{entry['failed']} of {entry['attempted']} runs failed")
        for error in entry["errors"]:
            print(f"   FAILED: {error.strip().splitlines()[-1]}")
        for metric, value in {**entry["end_to_end"], **entry.get("per_layer", {})}.items():
            print(f"   {metric:<42} {value:>14.6g} {units.get(metric, '')}")
        per_layer = entry.get("per_layer")
        if per_layer:
            print(f"   {'layer':<22} {'calls':>10} {'self ms':>10} {'share':>7} {'us/call':>9}")
            for layer in LAYERS:
                calls = per_layer[f"{layer}.calls"]
                per_call = per_layer[f"{layer}.self_us_per_call"]
                print(f"   {layer:<22} {calls:>10.0f} {calls * per_call / 1e3:>10.1f} "
                      f"{per_layer[f'{layer}.self_share']:>7.1%} {per_call:>9.2f}")
    if "obs.armed_overhead_x" in report:
        print(f"obs.armed_overhead_x = {report['obs.armed_overhead_x']:.4f} x")


def golden(argv: List[str]) -> int:
    argparse.ArgumentParser(
        prog="python -m benchmarks.perf golden",
        description="Regenerate golden.json: the fingerprints of every workload at the "
                    "pinned seeds.  This edits the benchmark; a change that claims a speed-up "
                    "must leave golden.json untouched.",
    ).parse_args(argv)
    fingerprints: Dict[str, str] = {}
    for scale, seeds in ((1.0, GOLDEN_SEEDS), (SMOKE_SCALE, SMOKE_GOLDEN_SEEDS)):
        for seed in seeds:
            for workload in WORKLOADS.values():
                key = workload.golden_key(seed, scale)
                if key not in fingerprints:
                    fingerprints[key] = fingerprint(run_experiment(workload.config(seed, scale)))
                    print(key, fingerprints[key], flush=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({"fingerprints": dict(sorted(fingerprints.items()))}, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["golden"]:
        return golden(argv[1:])
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    return run(_parser().parse_args(argv))
