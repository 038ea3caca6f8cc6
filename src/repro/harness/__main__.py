"""Command-line entry point: regenerate any paper artifact.

Usage::

    python -m repro.harness table2
    python -m repro.harness table4
    python -m repro.harness figure4 [--cycles N] [--threads 1,4,8]
    python -m repro.harness figure5 [--cycles N]
    python -m repro.harness conflicts
    python -m repro.harness overflow
    python -m repro.harness all

Any figure/overflow artifact accepts ``--trace-out DIR`` to also dump
one Chrome/Perfetto trace per measurement point, ``--metrics-out DIR``
to dump one windowed-metrics JSON artifact per point, and ``--jobs N``
to fan independent measurement points out across worker processes
(``--jobs 0`` = one per CPU; output is bit-identical to ``--jobs 1``).

Free-form sweeps run through the ``sweep`` subcommand::

    python -m repro.harness sweep --workloads HashTable,RBTree \\
        --systems FlexTM,CGL --threads 1,2,4 --jobs 4 \\
        --csv-out sweep.csv --bench-out BENCH_sweep.json

See ``python -m repro.harness sweep --help`` and docs/PARALLEL.md.

A single run can be traced and inspected directly::

    python -m repro.harness trace hashtable FlexTM --threads 4 \\
        --cycles 50000 --trace-out /tmp/trace.json

See ``python -m repro.harness trace --help`` and docs/OBSERVABILITY.md.

A single run can also be measured with the windowed metrics pipeline —
JSON artifact plus a self-contained HTML dashboard — and two artifacts
can be diffed window by window::

    python -m repro.harness metrics hashtable FlexTM --threads 4 \\
        --cycles 50000 --json-out run.metrics.json --html-out run.html
    python -m repro.harness metrics compare a.metrics.json b.metrics.json

See ``python -m repro.harness metrics --help`` and
docs/OBSERVABILITY.md.

The robustness fault matrix runs through the ``chaos`` subcommand::

    python -m repro.harness chaos --seed 1 --jobs 2 --report chaos.json

Every backend runs under every seeded fault profile with invariants,
the livelock watchdog, and the serializability oracle armed; the exit
status is non-zero on any crash, wedge, or silent corruption.  See
``python -m repro.harness chaos --help`` and docs/ROBUSTNESS.md.

The adversarial conformance matrix runs the named schedules from the
TM-theory literature through the scripted-schedule engine::

    python -m repro.harness adversary --seed 1 --jobs 2 \\
        --report adversary.json

Every backend runs every named schedule under a schedule director with
strict invariants, opacity/zombie probes, and the serializability
oracle armed; the exit status is non-zero on any ``violates`` verdict.
``--list-schedules`` prints the catalog.  See
``python -m repro.harness adversary --help`` and docs/ADVERSARY.md.

The adaptive degradation ladder runs the same matrix with the
resilience controller armed through the ``degrade`` subcommand::

    python -m repro.harness degrade --seed 1 --jobs 2 --report degrade.json

Each cell reports commits per ladder rung (healthy / boosted / eager /
irrevocable) and time-to-recovery; the exit status is non-zero if any
cell wedges — the forward-progress guarantee.  See
``python -m repro.harness degrade --help`` and docs/RESILIENCE.md.

The simcheck static-analysis engine runs through the ``analyze``
subcommand::

    python -m repro.harness analyze [--format text|json|sarif]

It gates determinism, hook-site hygiene and the tracer-event registry;
the exit status is non-zero on any new error-severity finding.  See ``python -m repro.harness analyze --help``
and docs/ANALYSIS.md.

The exhaustive protocol model checker runs through the ``modelcheck``
subcommand::

    python -m repro.harness modelcheck --caches 3

It explores every reachable interleaving of the spec tables for one
line across N caches, checks the SIM-M401..407 invariant catalog
(SWMR, CST dual-update symmetry, lost responses, TSW legality,
quiescence), reports dead spec cells, and replays any minimal
counterexample on the real simulator through the adversary bridge;
the exit status is non-zero on any violation or dead cell.  See
``python -m repro.harness modelcheck --help`` and docs/ANALYSIS.md.

The best-effort-HTM capacity sweep runs through the ``capacity``
subcommand::

    python -m repro.harness capacity --sizes 2,4,8,12,16,24

Per-thread working-set size grows across the HTM-BE read/write-set
bounds; the report shows the deterministic fallback ladder engaging
(commits per path, fallback-rate curve) and the exit status is
non-zero if the ladder fires at the wrong sizes or replays
differently.  See docs/RESILIENCE.md.
"""

from __future__ import annotations

import argparse
import importlib
import sys


#: Subcommands with their own grammar, dispatched before the artifact
#: parser sees the arguments: name -> (module, function).  ``trace`` and
#: ``metrics`` take positionals (workload + system; ``metrics`` also has
#: a ``compare`` sub-mode), the rest options only.  A module is imported
#: only when its subcommand runs.
_SUBCOMMANDS = {
    "trace": ("repro.harness.trace", "run_trace_command"),
    "metrics": ("repro.harness.metrics", "run_metrics_command"),
    "sweep": ("repro.harness.sweep", "run_sweep_command"),
    "chaos": ("repro.harness.chaos", "run_chaos_command"),
    "adversary": ("repro.harness.adversary", "run_adversary_command"),
    "degrade": ("repro.harness.degrade", "run_degrade_command"),
    "analyze": ("repro.harness.analyze", "run_analyze_command"),
    "modelcheck": ("repro.harness.modelcheck", "run_modelcheck_command"),
    "capacity": ("repro.harness.capacity", "run_capacity_command"),
}


def _thread_list(text: str):
    return tuple(int(part) for part in text.split(","))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        module, function = _SUBCOMMANDS[argv[0]]
        return getattr(importlib.import_module(module), function)(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate FlexTM paper tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=["figure4", "figure5", "conflicts", "table2", "table4", "overflow", "all"],
    )
    parser.add_argument(
        "--cycles", type=int, default=150_000,
        help="simulated cycles per point (REPRO_CYCLES does not apply here)",
    )
    parser.add_argument(
        "--threads",
        type=_thread_list,
        default=(1, 2, 4, 8, 16),
        help="comma-separated thread counts",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render figure series as ASCII charts",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="write one Chrome trace per measurement point into DIR "
        "(figure4 / figure5 / overflow)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        default=None,
        help="write one windowed-metrics JSON artifact per measurement "
        "point into DIR (figure4 / figure5 / overflow)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent measurement points "
        "(0 = one per CPU, 1 = serial; figure4 / conflicts / figure5 / "
        "overflow)",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs >= 1 else None  # None = one per CPU

    wants = lambda name: args.artifact in (name, "all")

    if wants("table2"):
        from repro.harness.table2 import render_table2, run_table2

        print(render_table2(run_table2()))
        print()
    if wants("table4"):
        from repro.harness.table4 import render_table4, run_table4

        print(render_table4(run_table4()))
        print()
    if wants("figure4"):
        from repro.harness.figure4 import render_figure4, run_figure4

        results = run_figure4(
            thread_points=args.threads, cycle_limit=args.cycles, seed=args.seed,
            trace_out=args.trace_out, metrics_out=args.metrics_out, jobs=jobs,
        )
        print(render_figure4(results))
        if args.chart:
            from repro.harness.charts import chart_figure4

            for workload, points in results.items():
                print()
                print(chart_figure4(points, workload))
        print()
    if wants("conflicts"):
        from repro.harness.figure4 import render_conflict_table, run_conflict_table

        print(
            render_conflict_table(
                run_conflict_table(
                    cycle_limit=args.cycles, seed=args.seed, jobs=jobs
                )
            )
        )
        print()
    if wants("figure5"):
        from repro.harness.figure5 import (
            render_multiprogramming,
            render_policy,
            run_multiprogramming,
            run_policy_comparison,
        )

        policy_results = run_policy_comparison(
            thread_points=args.threads, cycle_limit=args.cycles, seed=args.seed,
            trace_out=args.trace_out, metrics_out=args.metrics_out, jobs=jobs,
        )
        print(render_policy(policy_results))
        if args.chart:
            from repro.harness.charts import chart_figure5

            for workload, points in policy_results.items():
                print()
                print(chart_figure5(points, workload))
        print()
        print(
            render_multiprogramming(
                run_multiprogramming(
                    cycle_limit=args.cycles, seed=args.seed, jobs=jobs
                )
            )
        )
        print()
    if wants("overflow"):
        from repro.harness.overflow import render_overflow, run_overflow_study

        print(
            render_overflow(
                run_overflow_study(
                    cycle_limit=args.cycles, trace_out=args.trace_out,
                    metrics_out=args.metrics_out, jobs=jobs,
                )
            )
        )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.exit(0)
