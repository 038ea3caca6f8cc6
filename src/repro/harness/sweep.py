"""Parameter-sweep utility with CSV export and parallel fan-out.

A thin layer over :func:`repro.harness.runner.run_experiment` for users
running their own design-space explorations: cartesian sweeps over
workloads, systems, thread counts, conflict modes and arbitrary
SystemParams overrides, with results collected into rows suitable for
spreadsheets or pandas.

Sweep points are independent sealed simulations, so
:func:`run_sweep` fans them out across processes via
:mod:`repro.harness.parallel` when ``jobs > 1`` — rows come back in
:meth:`SweepSpec.configs` order and are bit-identical to a serial run.
A point that raises, crashes its worker, or exceeds the per-point
timeout becomes a structured error row (``status`` / ``error``
columns) instead of killing the sweep.

The module is also a CLI (see :func:`run_sweep_command`)::

    python -m repro.harness sweep --workloads HashTable,RBTree \
        --systems FlexTM,CGL --threads 1,2,4 --jobs 4 \
        --csv-out sweep.csv --bench-out BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.descriptor import ConflictMode
from repro.harness.matrix import comma_list, resolve_names
from repro.harness.parallel import (
    PointOutcome,
    PointSpec,
    effective_jobs,
    render_progress,
    run_points,
    write_bench_json,
)
from repro.harness.runner import ExperimentConfig
from repro.params import SystemParams

#: Columns every sweep row carries, in order.  ``status`` is ``"ok"``
#: or a failure kind (``exception`` / ``crash`` / ``timeout``); failed
#: points zero their measurement columns and carry the message in
#: ``error``.
ROW_FIELDS = [
    "workload",
    "system",
    "threads",
    "mode",
    "seed",
    "cycles",
    "commits",
    "aborts",
    "throughput",
    "abort_ratio",
    "status",
    "error",
]

#: Opt-in pathology-indicator columns (``--pathology``), appended after
#: :data:`ROW_FIELDS` so the default schema stays locked.
PATHOLOGY_FIELDS = [
    "aborts_per_commit",
    "friendly_fire",
    "exposed_read_fraction",
    "duelling_upgrade",
    "summary_traps_per_commit",
    "convoying",
    "worst_pathology",
]


@dataclasses.dataclass
class SweepSpec:
    """The cartesian space to explore."""

    workloads: Sequence[str]
    systems: Sequence[str] = ("FlexTM",)
    thread_counts: Sequence[int] = (1, 4, 8)
    modes: Sequence[ConflictMode] = (ConflictMode.EAGER,)
    seeds: Sequence[int] = (42,)
    cycle_limit: int = 100_000
    params: Optional[SystemParams] = None

    def configs(self) -> Iterable[ExperimentConfig]:
        for workload, system, threads, mode, seed in itertools.product(
            self.workloads, self.systems, self.thread_counts, self.modes, self.seeds
        ):
            yield ExperimentConfig(
                workload=workload,
                system=system,
                threads=threads,
                mode=mode,
                seed=seed,
                cycle_limit=self.cycle_limit,
                params=self.params,
            )

    def size(self) -> int:
        return (
            len(self.workloads)
            * len(self.systems)
            * len(self.thread_counts)
            * len(self.modes)
            * len(self.seeds)
        )


def _row(
    config: ExperimentConfig, outcome: PointOutcome, pathology: bool = False
) -> Dict[str, object]:
    row: Dict[str, object] = {
        "workload": config.workload,
        "system": config.system,
        "threads": config.threads,
        "mode": config.mode.value,
        "seed": config.seed,
        "cycles": 0,
        "commits": 0,
        "aborts": 0,
        "throughput": 0.0,
        "abort_ratio": 0.0,
        "status": outcome.status,
        "error": outcome.error,
    }
    if pathology:
        row.update(
            aborts_per_commit=0.0,
            friendly_fire="",
            exposed_read_fraction=0.0,
            duelling_upgrade="",
            summary_traps_per_commit=0.0,
            convoying="",
            worst_pathology="",
        )
    if outcome.ok:
        result = outcome.result
        row.update(
            cycles=result.cycles,
            commits=result.commits,
            aborts=result.aborts,
            throughput=round(result.throughput, 2),
            abort_ratio=round(result.abort_ratio, 4),
        )
        if pathology:
            from repro.harness.pathology import analyze

            report = analyze(result)
            row.update(
                aborts_per_commit=round(report.aborts_per_commit, 3),
                friendly_fire=report.friendly_fire_risk,
                exposed_read_fraction=round(report.exposed_read_fraction, 3),
                duelling_upgrade=report.duelling_upgrade_risk,
                summary_traps_per_commit=round(report.summary_traps_per_commit, 3),
                convoying=report.convoying_risk,
                worst_pathology=report.worst(),
            )
    return row


def _point_spec(config: ExperimentConfig, metrics_out: Optional[str]) -> PointSpec:
    label = (
        f"{config.workload}/{config.system}/{config.threads}t/"
        f"{config.mode.value}/s{config.seed}"
    )
    return PointSpec(
        config=config,
        label=label,
        metrics_dir=metrics_out,
        metrics_name=(
            f"sweep_{config.workload}_{config.system}_{config.threads}t_"
            f"{config.mode.value}_s{config.seed}"
        ) if metrics_out else None,
    )


def run_sweep(
    spec: SweepSpec,
    progress=None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    bench_out: Optional[str] = None,
    pathology: bool = False,
    metrics_out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Execute the sweep; returns one dict per configuration.

    Rows follow :meth:`SweepSpec.configs` order regardless of ``jobs``.
    ``progress`` keeps its historical ``progress(done, total)``
    signature.  ``bench_out`` additionally writes a
    ``BENCH_sweep.json`` wall-time document (see docs/PARALLEL.md).
    ``metrics_out`` names a directory receiving one windowed-metrics
    JSON artifact per point (row schema stays unchanged).
    """
    configs = list(spec.configs())
    specs = [_point_spec(config, metrics_out) for config in configs]
    callback = None
    if progress is not None:
        callback = lambda done, total, outcome: progress(done, total)
    started = time.perf_counter()
    outcomes = run_points(
        specs, jobs=jobs, timeout=timeout, retries=retries, progress=callback
    )
    elapsed = time.perf_counter() - started
    if bench_out:
        write_bench_json(
            bench_out,
            outcomes,
            jobs=effective_jobs(jobs),
            total_wall_time=elapsed,
            extra={
                "workloads": list(spec.workloads),
                "systems": list(spec.systems),
                "thread_counts": list(spec.thread_counts),
                "modes": [mode.value for mode in spec.modes],
                "seeds": list(spec.seeds),
                "cycle_limit": spec.cycle_limit,
            },
        )
    return [
        _row(config, outcome, pathology=pathology)
        for config, outcome in zip(configs, outcomes)
    ]


def to_csv(rows: List[Dict[str, object]], fields: Optional[List[str]] = None) -> str:
    """Render sweep rows as CSV text (``fields`` defaults to ROW_FIELDS)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=fields or ROW_FIELDS, lineterminator="\n"
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(
    rows: List[Dict[str, object]], path: str, fields: Optional[List[str]] = None
) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(to_csv(rows, fields))


# -- CLI ----------------------------------------------------------------------


def run_sweep_command(argv=None) -> int:
    """``python -m repro.harness sweep`` — run a sweep from the shell."""
    from repro.harness.runner import SYSTEMS
    from repro.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness sweep",
        description="Run a cartesian experiment sweep, in parallel, "
        "with CSV and BENCH_sweep.json output.",
    )
    parser.add_argument(
        "--workloads", required=True,
        help="comma-separated workload names (case-insensitive)",
    )
    parser.add_argument("--systems", default="FlexTM",
                        help="comma-separated TM system names")
    parser.add_argument("--threads", default="1,4,8",
                        help="comma-separated thread counts")
    parser.add_argument("--modes", default="eager",
                        help="comma-separated conflict modes (eager, lazy)")
    parser.add_argument("--seeds", default="42",
                        help="comma-separated RNG seeds")
    parser.add_argument("--cycles", type=int, default=100_000,
                        help="simulated cycles per point")
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = one per CPU; 1 = serial)",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-point wall-clock budget in seconds (0 = none; "
        "only enforced when --jobs > 1)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="relaunch budget for crashed/timed-out points (default 1)",
    )
    parser.add_argument(
        "--pathology", action="store_true",
        help="append pathology-indicator columns (FriendlyFire, "
        "DuellingUpgrade, Convoying) to every row",
    )
    parser.add_argument("--csv-out", metavar="FILE",
                        help="write rows here instead of stdout")
    parser.add_argument("--bench-out", metavar="FILE",
                        help="write BENCH_sweep.json wall-time report here")
    parser.add_argument("--metrics-out", metavar="DIR",
                        help="write one windowed-metrics JSON artifact "
                        "per point into DIR")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress on stderr")
    args = parser.parse_args(argv)

    spec = SweepSpec(
        workloads=resolve_names(comma_list(args.workloads), WORKLOADS, "workload"),
        systems=resolve_names(comma_list(args.systems), SYSTEMS, "system"),
        thread_counts=tuple(int(part) for part in comma_list(args.threads)),
        modes=tuple(
            ConflictMode(part.lower()) for part in comma_list(args.modes)
        ),
        seeds=tuple(int(part) for part in comma_list(args.seeds)),
        cycle_limit=args.cycles,
    )
    configs = list(spec.configs())
    specs = [_point_spec(config, args.metrics_out) for config in configs]
    jobs = effective_jobs(args.jobs)
    if not args.quiet:
        sys.stderr.write(
            f"sweep: {len(specs)} points across {jobs} worker(s)\n"
        )
    started = time.perf_counter()
    outcomes = run_points(
        specs,
        jobs=jobs,
        timeout=args.timeout or None,
        retries=args.retries,
        progress=None if args.quiet else render_progress,
    )
    elapsed = time.perf_counter() - started
    rows = [
        _row(config, outcome, pathology=args.pathology)
        for config, outcome in zip(configs, outcomes)
    ]

    fields = ROW_FIELDS + PATHOLOGY_FIELDS if args.pathology else ROW_FIELDS
    text = to_csv(rows, fields)
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.bench_out:
        write_bench_json(
            args.bench_out, outcomes, jobs=jobs, total_wall_time=elapsed,
            extra={
                "workloads": list(spec.workloads),
                "systems": list(spec.systems),
                "thread_counts": list(spec.thread_counts),
                "modes": [mode.value for mode in spec.modes],
                "seeds": list(spec.seeds),
                "cycle_limit": spec.cycle_limit,
            },
        )
    errors = sum(1 for outcome in outcomes if not outcome.ok)
    serial_estimate = sum(outcome.wall_time for outcome in outcomes)
    if not args.quiet:
        speedup = serial_estimate / elapsed if elapsed > 0 else 0.0
        sys.stderr.write(
            f"sweep: {len(outcomes)} points, {errors} error(s), "
            f"{elapsed:.2f}s total ({speedup:.2f}x vs serial estimate)\n"
        )
    return 1 if errors else 0
