"""Figure 4: throughput and scalability (E1) + conflict table (E2).

Reproduces Figure 4(a)-(g): normalized throughput (transactions per
million cycles, normalized to 1-thread CGL) for 1..16 threads.

Workload-Set 1 (HashTable, RBTree, LFUCache, RandomGraph, Delaunay)
compares FlexTM / RTM-F / RSTM; Workload-Set 2 (Vacation low/high)
compares FlexTM / TL2.  All TM systems run eager conflict management
with the Polka manager, exactly as in the paper.

The companion conflict table reports, per committed transaction, the
number of distinct processors named by the W-R/W-W CSTs (median and
maximum at 8 and 16 threads).
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.descriptor import ConflictMode
from repro.harness.parallel import PointSpec, run_points, unwrap
from repro.harness.report import format_series, format_table
from repro.harness.runner import ExperimentConfig, run_experiment, run_point
from repro.sim.stats import Histogram

WS1 = ["HashTable", "RBTree", "LFUCache", "RandomGraph", "Delaunay"]
WS2 = ["Vacation-Low", "Vacation-High"]
ALL_WORKLOADS = WS1 + WS2

DEFAULT_THREAD_POINTS = (1, 2, 4, 8, 16)


def systems_for(workload: str) -> List[str]:
    """WS1 compares against RSTM; WS2 against TL2 (Table 3b)."""
    if workload in WS2:
        return ["CGL", "FlexTM", "TL2"]
    return ["CGL", "FlexTM", "RTM-F", "RSTM"]


@dataclasses.dataclass
class Figure4Point:
    workload: str
    system: str
    threads: int
    throughput: float
    normalized: float
    commits: int
    aborts: int


def run_figure4(
    workloads: Sequence[str] = ALL_WORKLOADS,
    thread_points: Sequence[int] = DEFAULT_THREAD_POINTS,
    cycle_limit: int = 0,
    seed: int = 42,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    jobs: int = 1,
) -> Dict[str, List[Figure4Point]]:
    """Run the full Figure 4 sweep; returns points grouped by workload.

    ``trace_out`` names a directory that receives one Chrome trace per
    measurement point (sparse sampling, coherence events off);
    ``metrics_out`` likewise receives one windowed-metrics JSON
    artifact per point.  Both are written by whichever worker ran the
    point.  ``jobs > 1`` fans the points (baselines included) out
    across processes — output is bit-identical to the serial run.
    """
    specs = [
        PointSpec(
            f"figure4:{workload}:baseline",
            partial(run_experiment, ExperimentConfig(
                workload=workload, system="CGL", threads=1,
                cycle_limit=cycle_limit, seed=seed,
            )),
        )
        for workload in workloads
    ]
    for workload in workloads:
        for system in systems_for(workload):
            for threads in thread_points:
                config = ExperimentConfig(
                    workload=workload,
                    system=system,
                    threads=threads,
                    mode=ConflictMode.EAGER,
                    cycle_limit=cycle_limit,
                    seed=seed,
                )
                specs.append(PointSpec(
                    f"figure4:{workload}:{system}:{threads}t",
                    partial(run_point, config, trace_out, metrics_out,
                            f"figure4_{workload}_{system}_{threads}t"),
                ))
    outcomes = iter(run_points(specs, jobs=jobs))
    baselines = {
        workload: unwrap(next(outcomes)).throughput or 1.0
        for workload in workloads
    }
    results: Dict[str, List[Figure4Point]] = {}
    for workload in workloads:
        base_tput = baselines[workload]
        points: List[Figure4Point] = []
        for system in systems_for(workload):
            for threads in thread_points:
                result = unwrap(next(outcomes))
                points.append(
                    Figure4Point(
                        workload=workload,
                        system=system,
                        threads=threads,
                        throughput=result.throughput,
                        normalized=result.throughput / base_tput,
                        commits=result.commits,
                        aborts=result.aborts,
                    )
                )
        results[workload] = points
    return results


def run_conflict_table(
    workloads: Sequence[str] = ALL_WORKLOADS,
    thread_points: Sequence[int] = (8, 16),
    cycle_limit: int = 0,
    seed: int = 42,
    jobs: int = 1,
) -> Dict[str, Dict[int, Dict[str, int]]]:
    """The 'Conflicting Transactions' table accompanying Figure 4."""
    specs = [
        PointSpec(
            f"conflicts:{workload}:{threads}t",
            partial(run_experiment, ExperimentConfig(
                workload=workload,
                system="FlexTM",
                threads=threads,
                mode=ConflictMode.EAGER,
                cycle_limit=cycle_limit,
                seed=seed,
            )),
        )
        for workload in workloads
        for threads in thread_points
    ]
    outcomes = iter(run_points(specs, jobs=jobs))
    table: Dict[str, Dict[int, Dict[str, int]]] = {}
    for workload in workloads:
        table[workload] = {}
        for threads in thread_points:
            result = unwrap(next(outcomes))
            histogram = Histogram("degrees")
            for sample in result.conflict_degrees:
                histogram.record(sample)
            table[workload][threads] = {
                "median": histogram.median,
                "max": histogram.maximum,
            }
    return table


def render_figure4(results: Dict[str, List[Figure4Point]]) -> str:
    """Figure 4 as text: one series line per (workload, system)."""
    lines = ["Figure 4: normalized throughput (x = threads, y = vs 1-thread CGL)"]
    for workload, points in results.items():
        lines.append(f"-- {workload} --")
        by_system: Dict[str, List] = {}
        for point in points:
            by_system.setdefault(point.system, []).append((point.threads, point.normalized))
        for system, series in by_system.items():
            lines.append(format_series(f"  {system}", series))
    return "\n".join(lines)


def render_conflict_table(table: Dict[str, Dict[int, Dict[str, int]]]) -> str:
    rows = []
    for workload, per_threads in table.items():
        row = [workload]
        for threads in sorted(per_threads):
            row.append(per_threads[threads]["median"])
            row.append(per_threads[threads]["max"])
        rows.append(row)
    threads_sorted = sorted(next(iter(table.values()))) if table else []
    headers = ["Workload"]
    for threads in threads_sorted:
        headers += [f"{threads}T Md", f"{threads}T Mx"]
    return format_table(headers, rows, title="Conflicting transactions (CST degree)")
