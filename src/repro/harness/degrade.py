"""Degradation-ladder harness: ``python -m repro.harness degrade``.

Crosses the same seeded fault matrix as ``harness chaos`` — every TM
backend under every fault profile, with the chaos engine, invariant
checker, livelock watchdog, and serializability oracle armed — but
additionally installs a :class:`~repro.resilience.degrade.\
ResilienceController` with a deliberately tight ladder, then reports
**forward progress**: commits per ladder rung and time-to-recovery.

Classification per cell:

``clean``
    every transaction committed and the ladder never left HEALTHY.
``recovered``
    every transaction committed and the ladder fired at least once
    (boost, policy flip, signature rotation, or irrevocable grant) —
    the detect->react loop earned its keep.
``diagnosed``
    the run (or its oracle) raised a structured
    :class:`~repro.errors.ReproError` naming the damage.
``wedged``
    the cycle budget expired with transactions outstanding, or (at
    ``--jobs >= 2``) the cell overran its wall-clock budget: the ladder
    failed to guarantee progress.  **Test failure.**
``silent-corruption``
    final memory does not replay from the serializability witness.
    **Test failure.**
``crash``
    a non-``ReproError`` escaped, or the cell's worker process died.
    **Test failure.**

Cells run through the chaos harness's cell runner
(:func:`repro.harness.chaos.run_cell`) with a controller armed, one
point each, and share its ladder head (:func:`repro.harness.chaos.triage`).
Every cell is deterministic from ``(seed, backend, profile, mode)``:
the controller draws no random numbers and the chaos streams are the
same crc32-mixed ones the chaos harness replays.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Dict, List, Sequence

from repro.core.descriptor import ConflictMode
from repro.harness.chaos import (
    DEFAULT_CYCLE_LIMIT,
    DEFAULT_THREADS,
    DEFAULT_TXNS,
    FAILING,
    LOST_CLASSIFICATION,
    fault_matrix_parser,
    profile_spec,
    resolve_profiles,
    run_cell,
    triage,
)
from repro.harness.matrix import (
    comma_list,
    conclude,
    lost_cell,
    matrix_report,
    render_backend_list,
    resolve_backends,
    run_cells,
)
from repro.harness.parallel import PointOutcome, effective_jobs, render_progress
from repro.resilience import DegradeSpec, ResilienceController

#: The harness ladder is tighter than the library default so every
#: profile actually exercises the rungs on a small workload.
HARNESS_SPEC = DegradeSpec(boost_after=1, eager_after=2, irrevocable_after=3)

#: Escalation counters that mean the ladder fired.
LADDER_KEYS = ("boosts", "policy_flips", "sig_rotations", "irrevocable_grants")


@dataclasses.dataclass
class DegradeCell:
    """One (backend, profile) cell of the ladder-armed fault matrix."""

    backend: str
    profile: str
    classification: str
    injected: Dict[str, int]
    commits: int = 0
    aborts: int = 0
    cycles: int = 0
    #: Abort counts keyed by conflict kind (cause fidelity; mirrors the
    #: chaos report so every harness schema carries the same keys).
    aborts_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Commits grouped by the committing thread's ladder rung.
    commits_by_rung: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Escalation counters from RunResult (ladder + watchdog).
    escalations: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Windowed commit/abort series from the metrics hub, keyed by
    #: series name (see repro.obs.metrics.TimeSeries.to_dict).
    series: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Cycles from first escalation to the recovering commit.
    recovery: Dict[str, int] = dataclasses.field(default_factory=dict)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.classification not in FAILING

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def _degrade_row(
    backend: str, profile: str, outcome: PointOutcome, expected: int
) -> DegradeCell:
    """Classify one ladder-armed cell: the shared ladder head, then
    ``recovered`` if the ladder fired, else ``clean``."""
    lost = lost_cell(outcome)
    if lost is not None:
        return DegradeCell(
            backend=backend, profile=profile,
            classification=LOST_CLASSIFICATION[lost[0]],
            injected={}, detail=lost[1],
        )
    run = outcome.result
    verdict = triage(run, expected)
    if verdict is None:
        fired = any(run["escalations"].get(key) for key in LADDER_KEYS)
        verdict = ("recovered" if fired else "clean"), ""
    classification, detail = verdict
    return DegradeCell(
        backend=backend, profile=profile,
        classification=classification,
        injected=dict(run["injected"]),
        commits=int(run["commits"]),
        aborts=int(run["aborts"]),
        cycles=int(run["cycles"]),
        aborts_by_kind=dict(run["aborts_by_kind"]),
        commits_by_rung=dict(run["commits_by_rung"]),
        escalations=dict(run["escalations"]),
        series=dict(run["series"]),
        recovery=dict(run["recovery"]),
        detail=detail,
    )


def run_degrade_matrix(
    backends: Sequence[str],
    profiles: Sequence[str],
    seed: int,
    spec: DegradeSpec = HARNESS_SPEC,
    mode: ConflictMode = ConflictMode.LAZY,
    jobs: int = 1,
    threads: int = DEFAULT_THREADS,
    txns: int = DEFAULT_TXNS,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    progress=None,
) -> List[DegradeCell]:
    """The full ladder-armed matrix; one point per cell, rows
    backend-major in input order."""
    keys = [(backend, profile) for backend in backends for profile in profiles]
    outcomes = run_cells(
        [
            (f"{backend}/{profile}", functools.partial(
                run_cell, backend, seed, profile_spec(profile, seed, backend),
                threads, txns, cycle_limit, mode, ResilienceController(spec)))
            for backend, profile in keys
        ],
        jobs, progress,
    )
    return [
        _degrade_row(backend, profile, outcome, threads * txns)
        for (backend, profile), outcome in zip(keys, outcomes)
    ]


# -- CLI ----------------------------------------------------------------------


def render_degrade_matrix(rows: List[DegradeCell]) -> str:
    """Human-readable report: per-rung commits and recovery latency."""
    lines = []
    header = (
        f"{'backend':<10} {'profile':<10} {'class':<17} {'inj':>5} "
        f"{'commits':>7} {'aborts':>7} {'rungs h/b/e/i':>14} {'recov(max)':>11}  detail"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cell in rows:
        marker = "" if cell.ok else "  <-- FAIL"
        rungs = "/".join(
            str(cell.commits_by_rung.get(rung, 0))
            for rung in ("healthy", "boosted", "eager", "irrevocable")
        )
        lines.append(
            f"{cell.backend:<10} {cell.profile:<10} {cell.classification:<17} "
            f"{sum(cell.injected.values()):>5} {cell.commits:>7} {cell.aborts:>7} "
            f"{rungs:>14} {cell.recovery.get('max', 0):>11}  "
            f"{cell.detail}{marker}"
        )
    return "\n".join(lines) + "\n"


def run_degrade_command(argv=None) -> int:
    """``python -m repro.harness degrade`` — ladder-armed fault matrix."""
    parser = fault_matrix_parser(
        "degrade",
        "Run every TM backend under seeded fault injection "
        "with the adaptive degradation ladder armed; report commits per "
        "rung and time-to-recovery; fail on any crash, wedge, or silent "
        "corruption (the forward-progress guarantee).",
        "write the JSON degrade-matrix report here",
    )
    parser.add_argument("--mode", choices=("eager", "lazy"), default="lazy",
                        help="baseline conflict mode (lazy makes the "
                        "EAGER rung's policy flip observable; default lazy)")
    parser.add_argument("--boost-after", type=int,
                        default=HARNESS_SPEC.boost_after,
                        help="abort streak before back-off boost")
    parser.add_argument("--eager-after", type=int,
                        default=HARNESS_SPEC.eager_after,
                        help="abort streak before the lazy->eager flip")
    parser.add_argument("--irrevocable-after", type=int,
                        default=HARNESS_SPEC.irrevocable_after,
                        help="abort streak before irrevocability")
    args = parser.parse_args(argv)

    if args.list_backends:
        sys.stdout.write(render_backend_list())
        return 0

    backends = resolve_backends(args.backend or comma_list(args.backends))
    profiles = resolve_profiles(args.profile or comma_list(args.profiles))
    spec = dataclasses.replace(
        HARNESS_SPEC,
        boost_after=args.boost_after,
        eager_after=args.eager_after,
        irrevocable_after=args.irrevocable_after,
    )
    mode = ConflictMode.EAGER if args.mode == "eager" else ConflictMode.LAZY
    if not args.quiet:
        sys.stderr.write(
            f"degrade: seed {args.seed}, {len(backends)} backend(s) x "
            f"{len(profiles)} profile(s), mode {args.mode}, "
            f"{effective_jobs(args.jobs)} worker(s)\n"
        )
    rows = run_degrade_matrix(
        backends, profiles, args.seed, spec=spec, mode=mode, jobs=args.jobs,
        threads=args.threads, txns=args.txns, cycle_limit=args.cycles,
        progress=None if args.quiet else render_progress,
    )
    sys.stdout.write(render_degrade_matrix(rows))
    document = matrix_report(
        "repro.degrade/v1", rows, "classification",
        seed=args.seed, backends=backends, profiles=profiles, mode=args.mode,
        threads=args.threads, txns=args.txns, cycle_limit=args.cycles,
        spec=dataclasses.asdict(spec),
    )
    return conclude(
        "degrade", document, args.report,
        [f"{c.backend}/{c.profile}: {c.classification}" for c in rows if not c.ok],
        "forward progress held on every cell (no wedges, no corruption)",
    )
