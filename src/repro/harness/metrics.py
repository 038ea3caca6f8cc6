"""The ``metrics`` subcommand: windowed-series artifacts and dashboards.

Usage::

    python -m repro.harness metrics <workload> <system> [--threads N]
        [--cycles N] [--seed N] [--mode eager|lazy] [--window N]
        [--sample-interval N] [--degrade] [--json-out FILE.json]
        [--html-out FILE.html]

    python -m repro.harness metrics compare A.json B.json
        [--json-out FILE.json]

The run form arms a :class:`~repro.obs.metrics.MetricsHub` on a single
measurement point and writes the ``repro.metrics/v1`` JSON artifact
(windowed time series, log-bucket histograms, wounded-by chains,
pathology annotations) plus an optional self-contained HTML dashboard.

``compare`` diffs two artifacts window by window and **flags divergent
windows**: identical runs exit 0, any totals/series divergence exits 1
with a per-window report — the determinism tripwire for CI.

The module also provides :func:`write_point_metrics`, the shared
helper behind the figure/overflow/sweep harnesses'
``--metrics-out`` directories (mirroring ``trace.write_point_trace``).
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Optional

from repro.obs.causality import annotate_pathologies, extract_chains
from repro.obs.dashboard import render_dashboard
from repro.obs.metrics import (
    DEFAULT_SAMPLE_INTERVAL,
    DEFAULT_WINDOW_CYCLES,
    MetricsHub,
)

#: Schema identifier stamped into every metrics artifact.
METRICS_SCHEMA = "repro.metrics/v1"

#: Keys every metrics artifact must carry.
METRICS_REQUIRED_KEYS = (
    "schema",
    "run",
    "totals",
    "counters",
    "gauges",
    "histograms",
    "series",
    "causality",
)

#: Keys every ``totals`` section must carry (the uniform report shape —
#: ``aborts_by_kind`` AND ``escalations``, never one without the other).
TOTALS_REQUIRED_KEYS = (
    "cycles",
    "commits",
    "aborts",
    "throughput",
    "aborts_by_kind",
    "escalations",
    "commits_by_path",
    "fallback_rate",
)

#: Chains reported per artifact (longest first).
MAX_CHAINS = 10


def commits_by_path(escalations: Dict[str, int]) -> Dict[str, int]:
    """Commits per execution path, from the ``fallback_*`` counters.

    Backends without an intrinsic fallback ladder report all zeros —
    the uniform shape, so the totals schema never forks per backend.
    """
    return {
        "htm": escalations.get("fallback_commits_htm", 0),
        "sw": escalations.get("fallback_commits_sw", 0),
        "irrevocable": escalations.get("fallback_commits_irrevocable", 0),
    }


def fallback_rate(commits: int, escalations: Dict[str, int]) -> float:
    """Fraction of commits that landed on a software fallback path."""
    if not commits:
        return 0.0
    paths = commits_by_path(escalations)
    return round((paths["sw"] + paths["irrevocable"]) / commits, 4)


def build_artifact(hub: MetricsHub, result,
                   run_info: Dict[str, object]) -> Dict[str, object]:
    """Assemble the ``repro.metrics/v1`` document for one run."""
    data = hub.to_dict()
    chains = extract_chains(hub.abort_records, limit=MAX_CHAINS)
    pathologies = annotate_pathologies(
        hub.abort_records, hub.window_cycles,
        commits_by_window=hub.commits_by_window(),
    )
    return {
        "schema": METRICS_SCHEMA,
        "run": dict(run_info),
        "totals": {
            "cycles": result.cycles,
            "commits": result.commits,
            "aborts": result.aborts,
            "nontx_items": result.nontx_items,
            "throughput": round(result.throughput, 4),
            "aborts_by_kind": dict(result.aborts_by_kind),
            "escalations": dict(result.escalations),
            "commits_by_path": commits_by_path(result.escalations),
            "fallback_rate": fallback_rate(
                result.commits, result.escalations
            ),
        },
        "counters": data["counters"],
        "gauges": data["gauges"],
        "histograms": data["histograms"],
        "series": data["series"],
        "causality": {
            "records": len(hub.abort_records),
            "records_dropped": hub.abort_records_dropped,
            "chains": [c.to_dict(hub.abort_records) for c in chains],
            "pathologies": pathologies,
        },
        "sampling": {
            "window_cycles": data["window_cycles"],
            "sample_interval": data["sample_interval"],
            "samples_taken": data["samples_taken"],
            "proc_cycles": data["proc_cycles"],
        },
    }


def validate_metrics_artifact(document: object) -> Optional[str]:
    """Schema check for a metrics artifact; returns an error or None."""
    if not isinstance(document, dict):
        return "document is not a JSON object"
    if document.get("schema") != METRICS_SCHEMA:
        return (
            f"schema is {document.get('schema')!r}, expected "
            f"{METRICS_SCHEMA!r}"
        )
    for key in METRICS_REQUIRED_KEYS:
        if key not in document:
            return f"missing key {key!r}"
    totals = document["totals"]
    if not isinstance(totals, dict):
        return "totals is not an object"
    for key in TOTALS_REQUIRED_KEYS:
        if key not in totals:
            return f"totals missing key {key!r}"
    series = document["series"]
    if not isinstance(series, dict):
        return "series is not an object"
    for name in series:
        entry = series[name]
        if not isinstance(entry, dict) or "points" not in entry:
            return f"series {name!r} missing points"
        for point in entry["points"]:
            if not isinstance(point, list) or len(point) != 2:
                return f"series {name!r} has a malformed point"
    return None


def write_metrics_artifact(document: Dict[str, object], path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def write_point_metrics(hub: MetricsHub, result, directory: str,
                        point_name: str) -> str:
    """Write one sweep point's metrics artifact into ``directory``.

    Used by :func:`repro.harness.runner.run_point` for the
    figure4/figure5/overflow/sweep harnesses' ``--metrics-out DIR``;
    returns the file path written.
    """
    document = build_artifact(hub, result, run_info={"label": point_name})
    path = os.path.join(directory, f"{point_name}.json")
    write_metrics_artifact(document, path)
    return path


# -- compare ------------------------------------------------------------------


def compare_artifacts(a: Dict, b: Dict) -> List[Dict[str, object]]:
    """Window-by-window diff of two artifacts; [] when identical.

    Each divergence names the series (or totals key), the window start
    cycle, and both values — enough to localize *when* two runs parted
    ways, not just that they did.
    """
    divergences: List[Dict[str, object]] = []
    totals_a = a.get("totals", {})
    totals_b = b.get("totals", {})
    for key in sorted(set(totals_a) | set(totals_b)):
        if totals_a.get(key) != totals_b.get(key):
            divergences.append({
                "kind": "totals",
                "name": key,
                "a": totals_a.get(key),
                "b": totals_b.get(key),
            })
    series_a = a.get("series", {})
    series_b = b.get("series", {})
    for name in sorted(set(series_a) | set(series_b)):
        points_a = dict(
            map(tuple, series_a.get(name, {}).get("points", []))
        )
        points_b = dict(
            map(tuple, series_b.get(name, {}).get("points", []))
        )
        for window in sorted(set(points_a) | set(points_b)):
            value_a = points_a.get(window, 0)
            value_b = points_b.get(window, 0)
            if value_a != value_b:
                divergences.append({
                    "kind": "series",
                    "name": name,
                    "window_start": window,
                    "a": value_a,
                    "b": value_b,
                })
    return divergences


def _load_artifact(path: str) -> Dict:
    with open(path) as handle:
        document = json.load(handle)
    error = validate_metrics_artifact(document)
    if error is not None:
        raise SystemExit(f"{path}: invalid metrics artifact: {error}")
    return document


def _run_compare(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness metrics compare",
        description="Diff two metrics artifacts window by window.",
    )
    parser.add_argument("a", help="first metrics artifact (JSON)")
    parser.add_argument("b", help="second metrics artifact (JSON)")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the divergence report here")
    args = parser.parse_args(argv)
    first = _load_artifact(args.a)
    second = _load_artifact(args.b)
    divergences = compare_artifacts(first, second)
    if args.json_out:
        write_metrics_artifact(
            {"schema": "repro.metrics_compare/v1",
             "a": args.a, "b": args.b,
             "divergences": divergences},
            args.json_out,
        )
    if not divergences:
        print(f"identical: {args.a} == {args.b} (no divergent windows)")
        return 0
    print(f"DIVERGENT: {len(divergences)} difference(s) between "
          f"{args.a} and {args.b}")
    for divergence in divergences[:20]:
        if divergence["kind"] == "totals":
            print(f"  totals.{divergence['name']}: "
                  f"{divergence['a']} != {divergence['b']}")
        else:
            print(f"  series {divergence['name']} @ cycle "
                  f"{divergence['window_start']}: "
                  f"{divergence['a']} != {divergence['b']}")
    if len(divergences) > 20:
        print(f"  ... and {len(divergences) - 20} more")
    return 1


# -- the CLI ------------------------------------------------------------------


def run_metrics_command(argv=None) -> int:
    argv = list(argv or [])
    if argv and argv[0] == "compare":
        return _run_compare(argv[1:])
    # Imported here, not at module top: repro.harness.runner builds the
    # machine layer, and keeping it lazy makes `--help` instant.
    from repro.harness.matrix import single_run_config, single_run_parser
    from repro.harness.runner import run_experiment
    from repro.resilience import DegradeSpec

    parser = single_run_parser(
        "metrics",
        "Run one metrics-armed experiment; write the "
        "windowed-series artifact and dashboard.",
    )
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW_CYCLES,
                        help="time-series window width in cycles")
    parser.add_argument("--sample-interval", type=int,
                        default=DEFAULT_SAMPLE_INTERVAL,
                        help="scheduler steps between pressure samples")
    parser.add_argument("--degrade", action="store_true",
                        help="arm the resilience controller (rung residency)")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the repro.metrics/v1 artifact here")
    parser.add_argument("--html-out", metavar="FILE",
                        help="write the self-contained HTML dashboard here")
    args = parser.parse_args(argv)
    if args.window < 1:
        parser.error("--window must be >= 1")
    if args.sample_interval < 1:
        parser.error("--sample-interval must be >= 1")

    hub = MetricsHub(
        window_cycles=args.window, sample_interval=args.sample_interval
    )
    config = single_run_config(
        args, metrics=hub, degrade=DegradeSpec() if args.degrade else None
    )
    result = run_experiment(config)
    workload, system = config.workload, config.system
    label = f"{workload}/{system}/{args.threads}t/{args.mode}/s{args.seed}"
    document = build_artifact(hub, result, run_info={
        "label": label,
        "workload": workload,
        "system": system,
        "threads": args.threads,
        "mode": args.mode,
        "seed": args.seed,
        "cycle_limit": result.cycles,
    })
    error = validate_metrics_artifact(document)
    if error is not None:  # pragma: no cover — builder and schema agree
        print(f"metrics schema error: {error}")
        return 1

    totals = document["totals"]
    print(f"run: {label}")
    print(f"cycles: {totals['cycles']}  commits: {totals['commits']}  "
          f"aborts: {totals['aborts']}  "
          f"throughput: {totals['throughput']} commits/Mcycle")
    if totals["aborts_by_kind"]:
        parts = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(totals["aborts_by_kind"].items())
        )
        print(f"aborts by kind: {parts}")
    causality = document["causality"]
    if causality["chains"]:
        top = causality["chains"][0]
        print(f"longest wounded-by chain: {top['length']} aborts, "
              f"{top['total_wasted_cycles']} wasted cycles "
              f"(cycles {top['start_cycle']}..{top['end_cycle']})")
    for pathology in causality["pathologies"]:
        print(f"pathology @ cycle {pathology['start_cycle']}: "
              f"{pathology['kind']} — {pathology['detail']}")
    print(f"pressure samples: {document['sampling']['samples_taken']}  "
          f"series: {len(document['series'])}  "
          f"windows of {args.window} cycles")

    if args.json_out:
        write_metrics_artifact(document, args.json_out)
        print(f"metrics artifact written: {args.json_out}")
    if args.html_out:
        page = render_dashboard([document], title=f"FlexTM metrics — {label}")
        directory = os.path.dirname(os.path.abspath(args.html_out))
        os.makedirs(directory, exist_ok=True)
        with open(args.html_out, "w") as handle:
            handle.write(page)
        print(f"dashboard written: {args.html_out}")
    return 0
