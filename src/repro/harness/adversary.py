"""``python -m repro.harness adversary`` — the conformance matrix CLI.

Runs every named adversarial schedule (see
:mod:`repro.adversary.schedules`) against every TM backend with strict
invariants, the opacity probe, and the serializability oracle armed,
then renders a verdict table and (optionally) writes the
``repro.adversary/v1`` JSON report.  The exit status is non-zero on
any ``violates`` verdict — including opacity (zombie snapshot)
violations and aborts on progressiveness schedules.

The matrix is bit-identical across reruns and across ``--jobs`` values
(every cell is one point of the shared executor, keeping its seed and
its row position), so a CI failure replays locally with the same
command line.  At ``--jobs >= 2`` a cell whose worker dies or overruns
the per-cell wall-clock budget becomes a ``violates`` row with a
``crash:`` or ``timeout:`` detail, and the exit status is 1.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

from repro.adversary.conformance import (
    DEFAULT_CYCLE_LIMIT,
    ScheduleCell,
    run_adversary_matrix,
)
from repro.adversary.schedules import SCHEDULES
from repro.harness.matrix import (
    comma_list,
    conclude,
    matrix_parser,
    matrix_report,
    render_backend_list,
    resolve_backends,
    resolve_names,
)
from repro.harness.parallel import effective_jobs, render_progress

#: Schema tag for the JSON report.
REPORT_SCHEMA = "repro.adversary/v1"


def resolve_schedules(names: Sequence[str]) -> List[str]:
    return resolve_names(names, SCHEDULES, "schedule")


def list_schedules() -> str:
    """The ``--list-schedules`` discovery listing."""
    lines = ["named adversarial schedules:"]
    for spec in SCHEDULES.values():
        flavor = "forbid-aborts" if spec.forbid_aborts else "conflict"
        lines.append(f"  {spec.name:<22} [{flavor}] {spec.description}")
        lines.append(f"  {'':<22} -- {spec.citation}")
    return "\n".join(lines) + "\n"


def render_matrix(rows: List[ScheduleCell]) -> str:
    """Human-readable verdict table."""
    lines = []
    header = (
        f"{'backend':<10} {'schedule':<22} {'verdict':<19} "
        f"{'commits':>7} {'aborts':>7} {'zombies':>7}  detail"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cell in rows:
        marker = "" if cell.ok else "  <-- FAIL"
        lines.append(
            f"{cell.backend:<10} {cell.schedule:<22} {cell.verdict:<19} "
            f"{cell.commits:>7} {cell.aborts:>7} "
            f"{cell.probe.get('zombie_attempts', 0):>7}  {cell.detail}{marker}"
        )
    return "\n".join(lines) + "\n"


def build_report(
    rows: List[ScheduleCell],
    seed: int,
    backends: Sequence[str],
    schedules: Sequence[str],
    cycle_limit: int,
    strict: bool,
) -> Dict[str, object]:
    return matrix_report(
        REPORT_SCHEMA, rows, "verdict",
        seed=seed, backends=list(backends), schedules=list(schedules),
        cycle_limit=cycle_limit, strict=strict,
    )


def run_adversary_command(argv=None) -> int:
    """``python -m repro.harness adversary`` — run the conformance matrix."""
    parser = matrix_parser(
        "adversary",
        "Drive every TM backend through the named adversarial "
        "schedules from the TM-theory literature, with strict invariants, "
        "opacity/zombie probes, and the serializability oracle armed; "
        "fail on any conformance violation.",
        DEFAULT_CYCLE_LIMIT,
        "write the repro.adversary/v1 JSON report here",
    )
    parser.add_argument("--schedules", default=",".join(SCHEDULES),
                        help="comma-separated schedule names (default: all)")
    parser.add_argument("--schedule", action="append", default=None,
                        metavar="NAME", dest="schedule",
                        help="run a single schedule (repeatable; overrides "
                        "--schedules)")
    parser.add_argument("--no-strict", action="store_true",
                        help="drop strict invariants (wound-attribution "
                        "losses become silent instead of diagnosed)")
    parser.add_argument("--list-schedules", action="store_true",
                        help="list the named schedules and exit")
    args = parser.parse_args(argv)

    if args.list_schedules:
        sys.stdout.write(list_schedules())
        return 0
    if args.list_backends:
        sys.stdout.write(render_backend_list())
        return 0

    backends = resolve_backends(args.backend or comma_list(args.backends))
    schedules = resolve_schedules(args.schedule or comma_list(args.schedules))
    strict = not args.no_strict
    if not args.quiet:
        sys.stderr.write(
            f"adversary: seed {args.seed}, {len(backends)} backend(s) x "
            f"{len(schedules)} schedule(s), {effective_jobs(args.jobs)} worker(s)\n"
        )
    rows = run_adversary_matrix(
        backends, schedules, args.seed, jobs=args.jobs,
        cycle_limit=args.cycles, strict=strict,
        progress=None if args.quiet else render_progress,
    )
    sys.stdout.write(render_matrix(rows))
    return conclude(
        "adversary",
        build_report(rows, args.seed, backends, schedules, args.cycles, strict),
        args.report,
        [f"{c.backend}/{c.schedule}: {c.detail or c.verdict}" for c in rows if not c.ok],
        "every schedule conforms (or aborts exactly as the theory requires) "
        "on every backend",
    )
