"""What the matrix harnesses (chaos, degrade, adversary) share.

Each matrix crosses the TM backends with a list of cases (fault
profiles or adversarial schedules) and runs one independent cell per
pair.  Cells fan out one point each through
:func:`repro.harness.parallel.run_points`, so ``--jobs N`` rows are
bit-identical to ``--jobs 1`` and come back backend-major in input
order.  At ``--jobs >= 2`` a cell whose worker dies (after the
executor's retry) or overruns :data:`CELL_TIMEOUT_S` becomes a
structured row instead of a dead or hung matrix; see
:func:`lost_cell`.

The module also holds the shared CLI surface: the argument block, the
backend resolver and listing, and the summary/report/FAIL epilogue;
and the single-run block the ``trace`` and ``metrics`` inspectors share.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.parallel import (
    PointOutcome,
    PointSpec,
    host_metadata,
    run_points,
)

#: Wall-clock budget of one matrix cell, in seconds.  The slowest
#: default cells take about a second; a cell past this budget is hung.
#: Like the sweep's ``--timeout`` it is only enforced at ``--jobs >= 2``.
CELL_TIMEOUT_S = 300.0


def run_cells(
    cells: Sequence[Tuple[str, Callable[[], object]]],
    jobs: Optional[int],
    progress: Optional[Callable[[int, int, PointOutcome], None]] = None,
) -> List[PointOutcome]:
    """Run ``(label, task)`` cells, one point each, in input order."""
    return run_points(
        [PointSpec(label=label, task=task) for label, task in cells],
        jobs=jobs,
        timeout=CELL_TIMEOUT_S,
        progress=progress,
    )


def lost_cell(outcome: PointOutcome) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` for a cell that returned no result, else None.

    ``kind`` is ``"timeout"`` for a cell over :data:`CELL_TIMEOUT_S`
    and ``"crash"`` for a dead worker or an exception that escaped the
    cell runner.
    """
    if outcome.ok:
        return None
    kind = "timeout" if outcome.status == "timeout" else "crash"
    return kind, f"{kind}: {outcome.error}"


# -- CLI ----------------------------------------------------------------------


def comma_list(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def resolve_names(names: Sequence[str], table: Mapping, what: str) -> List[str]:
    """Case-insensitively canonicalize ``names`` against ``table``'s keys.

    Raises SystemExit on an unknown name and on an empty selection
    (e.g. ``--backends ","``), which must not silently produce an
    empty run that trivially passes.
    """
    lowered = {key.lower(): key for key in table}
    choices = ", ".join(sorted(table))
    resolved = []
    for name in names:
        key = lowered.get(name.lower())
        if key is None:
            raise SystemExit(f"unknown {what} {name!r}; choose from {choices}")
        resolved.append(key)
    if not resolved:
        raise SystemExit(f"no {what}s selected; choose from {choices}")
    return resolved


def single_run_parser(command: str, description: str) -> argparse.ArgumentParser:
    """A parser holding the argument block of a one-run inspector:
    ``<workload> <system>`` plus the run's threads, cycles, seed and mode."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.harness {command}", description=description
    )
    parser.add_argument("workload", help="workload name (case-insensitive)")
    parser.add_argument("system", help="TM system name (case-insensitive)")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--cycles", type=int, default=0,
                        help="cycle budget (0 = default / REPRO_CYCLES)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--mode", choices=["eager", "lazy"], default="eager")
    return parser


def single_run_config(args: argparse.Namespace, **fields: object):
    """The ExperimentConfig a :func:`single_run_parser` command line
    names, with ``fields`` (observers, controllers) added."""
    from repro.core.descriptor import ConflictMode
    from repro.harness.runner import SYSTEMS, ExperimentConfig
    from repro.workloads import WORKLOADS

    (workload,) = resolve_names([args.workload], WORKLOADS, "workload")
    (system,) = resolve_names([args.system], SYSTEMS, "system")
    return ExperimentConfig(
        workload=workload,
        system=system,
        threads=args.threads,
        mode=ConflictMode(args.mode),
        cycle_limit=args.cycles,
        seed=args.seed,
        **fields,
    )


def resolve_backends(names: Sequence[str]) -> List[str]:
    from repro.harness.runner import SYSTEMS

    return resolve_names(names, SYSTEMS, "backend")


def render_backend_list() -> str:
    """The ``--list-backends`` text."""
    from repro.harness.runner import BACKEND_SUMMARIES, SYSTEMS

    lines = ["backends:"]
    for name in SYSTEMS:
        lines.append(f"  {name:<10} {BACKEND_SUMMARIES.get(name, '')}")
    return "\n".join(lines) + "\n"


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def matrix_parser(
    command: str, description: str, cycles: int, report: str
) -> argparse.ArgumentParser:
    """A parser holding the argument block every matrix CLI shares."""
    from repro.harness.runner import SYSTEMS

    parser = argparse.ArgumentParser(
        prog=f"python -m repro.harness {command}", description=description
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed for the matrix (default 1)")
    parser.add_argument("--backends", default=",".join(SYSTEMS),
                        help="comma-separated backend names (default: all)")
    parser.add_argument("--backend", action="append", default=None,
                        metavar="NAME", dest="backend",
                        help="run a single backend (repeatable; overrides "
                        "--backends)")
    parser.add_argument("--cycles", type=positive_int, default=cycles,
                        help="cycle budget per cell (wedge detector)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (0 = one per CPU; 1 = serial)")
    parser.add_argument("--report", metavar="FILE", help=report)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress on stderr")
    parser.add_argument("--list-backends", action="store_true",
                        help="list the TM backends and exit")
    return parser


def matrix_report(
    schema: str, rows: Sequence, verdict: str, **fields: object
) -> Dict[str, object]:
    """The JSON report envelope; ``verdict`` names the counted field."""
    counts: Dict[str, int] = {}
    for cell in rows:
        key = getattr(cell, verdict)
        counts[key] = counts.get(key, 0) + 1
    return {
        "schema": schema,
        **fields,
        "counts": counts,
        "ok": all(cell.ok for cell in rows),
        "host": host_metadata(),
        "cells": [cell.to_json() for cell in rows],
    }


def conclude(
    command: str,
    document: Dict[str, object],
    report: Optional[str],
    failures: Sequence[str],
    success: str,
) -> int:
    """Print the summary, write the report, print the verdict line.

    Returns the exit status: 1 when ``failures`` names any cell.
    """
    counts = document["counts"]
    summary = ", ".join(f"{key}={value}" for key, value in sorted(counts.items()))
    sys.stdout.write(f"\n{command}: {len(document['cells'])} cells: {summary}\n")
    if report:
        with open(report, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if failures:
        sys.stdout.write(f"{command}: FAIL — " + "; ".join(failures) + "\n")
        return 1
    sys.stdout.write(f"{command}: {success}\n")
    return 0
