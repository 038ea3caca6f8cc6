"""Per-(backend, schedule) conformance cells and the adversary matrix.

Every named schedule from :mod:`repro.adversary.schedules` runs against
every TM backend with the full oracle stack armed: strict invariants,
the :class:`~repro.adversary.probes.OpacityProbe` (which also records
the history for the serializability checker), and the metrics hub (for
wasted-cycle accounting).  Each cell gets one of three verdicts:

``conforms``
    every transaction committed, the history is serializable, every
    attempt (committed or aborted) saw a consistent snapshot, and — for
    ``forbid_aborts`` schedules — no transaction aborted;
``aborts-as-required``
    same, except the conflict schedule made the TM abort someone, which
    is the *correct* response to the interleaving;
``violates``
    anything else: a crash (also of the cell's worker process), a wedge
    (missing commits at the cycle budget, or a cell over its wall-clock
    budget), a serializability or snapshot-consistency (opacity)
    violation, memory diverging from the serial witness, or an abort on
    a progressiveness schedule.

Cells are fully deterministic: the schedule script consumes no RNG and
the per-cell seed only offsets the unique write values, so the same
(seed, backend, schedule) triple replays bit-identically — including
across ``--jobs`` fan-out, where every cell is its own point of
:func:`repro.harness.parallel.run_points` and rows keep their input
order.  A cell whose worker dies or overruns the per-cell wall-clock
budget (enforced at ``--jobs >= 2``) becomes a ``violates`` row with a
``crash:`` or ``timeout:`` detail.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import zlib
from typing import Dict, List, Optional, Sequence

from repro.adversary.director import ScheduleDirector
from repro.adversary.probes import OpacityProbe
from repro.adversary.schedules import SCHEDULES, ScheduleSpec
from repro.chaos.invariants import InvariantChecker
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.errors import ReproError
from repro.harness.matrix import lost_cell, run_cells
from repro.params import small_test_params
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread
from repro.verify.history import (
    SerializabilityViolation,
    check_serializable,
    replays_serially,
    seed_cells,
)

DEFAULT_CYCLE_LIMIT = 10_000_000

#: The verdict that fails the harness.
VIOLATES = "violates"


@dataclasses.dataclass
class ScheduleCell:
    """One (backend, schedule) cell of the conformance matrix."""

    backend: str
    schedule: str
    verdict: str
    seed: int = 0
    commits: int = 0
    aborts: int = 0
    cycles: int = 0
    aborts_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: tx.wasted_cycles histogram snapshot (count/total/mean/p95).
    wasted_cycles: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: OpacityProbe.summary() — reads/snapshots checked, zombies, stale.
    probe: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: How the script actually unfolded (ScheduleDirector.log).
    directives: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict != VIOLATES

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def cell_seed(seed: int, backend: str, schedule: str) -> int:
    """The replay seed for one matrix cell; the chaos and degrade
    harnesses mix their per-profile fault seeds with it too."""
    return seed ^ zlib.crc32(f"{backend}:{schedule}".encode())


def run_schedule_cell(
    backend_name: str,
    schedule: str,
    seed: int = 1,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    strict: bool = True,
    spec: Optional[ScheduleSpec] = None,
) -> ScheduleCell:
    """Run one schedule on one backend with all oracles armed.

    ``spec`` overrides the catalog lookup so synthesized schedules —
    the model-checker's counterexample bridge, the DSL fuzzer — replay
    through exactly the same oracle stack as the named catalog;
    ``schedule`` then only names the cell (and salts its seed).
    """
    from repro.harness.runner import SYSTEMS
    from repro.obs.metrics import MetricsHub

    if spec is None:
        spec = SCHEDULES[schedule]
    mixed = cell_seed(seed, backend_name, schedule)
    machine = FlexTMMachine(small_test_params(max(spec.threads, 2)))
    hub = MetricsHub()
    probe = OpacityProbe()
    machine.attach(
        metrics=hub, invariants=InvariantChecker(strict=strict), probes=probe
    )
    backend = SYSTEMS[backend_name](machine, ConflictMode.EAGER)
    cells = seed_cells(machine, probe, spec.cells)
    # Unique write values, offset per cell so reads-from attribution is
    # exact and distinct across the matrix.
    unique = itertools.count(1000 + (mixed % 1000) * 10_000)
    bodies, script = spec.build(cells, unique)
    script = dataclasses.replace(script, seed=mixed)
    director = ScheduleDirector(script)
    tx_threads = [
        TxThread(thread_id, backend, items)
        for thread_id, items in enumerate(bodies)
    ]
    # Only transactional items produce commits; plain items (bridged
    # schedules) are tallied separately by the threads.
    expected = sum(
        1 for items in bodies for item in items if item.transactional
    )
    out = ScheduleCell(
        backend=backend_name, schedule=schedule, verdict="conforms", seed=mixed
    )
    error = ""
    try:
        result = Scheduler(machine, tx_threads, director=director).run(
            cycle_limit=cycle_limit
        )
        out.commits = result.commits
        out.aborts = result.aborts
        out.cycles = result.cycles
        out.aborts_by_kind = dict(result.aborts_by_kind)
        wasted = hub.histogram("tx.wasted_cycles")
        out.wasted_cycles = {
            "count": wasted.count,
            "total": wasted.total,
            "mean": wasted.mean,
            "p95": wasted.p95,
        }
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        error = f"crash {type(exc).__name__}: {exc}"
    out.probe = probe.summary()
    out.directives = list(director.log)
    if error:
        out.verdict, out.detail = VIOLATES, error
        return out
    if out.commits < expected:
        out.verdict = VIOLATES
        out.detail = f"wedged: {out.commits}/{expected} commits at cycle budget"
        return out
    if not spec.plain_ops:
        try:
            witness = check_serializable(probe)
        except SerializabilityViolation as exc:
            out.verdict, out.detail = (
                VIOLATES,
                f"SerializabilityViolation: {exc}",
            )
            return out
    if probe.violations:
        out.verdict = VIOLATES
        out.detail = "opacity: " + probe.violations[0].detail
        return out
    if not spec.plain_ops and not replays_serially(
        machine.memory, probe, witness, cells
    ):
        out.verdict = VIOLATES
        out.detail = "final memory diverges from serial witness replay"
        return out
    if out.aborts > 0:
        if spec.forbid_aborts:
            out.verdict = VIOLATES
            out.detail = (
                f"progressiveness: {out.aborts} abort(s) on a "
                "no-conflict schedule"
            )
        else:
            out.verdict = "aborts-as-required"
    return out


# ------------------------------------------------------------------ the matrix


def run_adversary_matrix(
    backends: Sequence[str],
    schedules: Sequence[str],
    seed: int,
    jobs: int = 1,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    strict: bool = True,
    progress=None,
) -> List[ScheduleCell]:
    """The full matrix; one point per cell, rows backend-major in input
    order.

    A cell whose worker died or overran the per-cell budget becomes a
    ``violates`` row with a ``crash:`` or ``timeout:`` detail.
    """
    keys = [(backend, schedule) for backend in backends for schedule in schedules]
    outcomes = run_cells(
        [
            (f"{backend}/{schedule}", functools.partial(
                run_schedule_cell, backend, schedule, seed, cycle_limit, strict))
            for backend, schedule in keys
        ],
        jobs, progress,
    )
    rows = []
    for (backend, schedule), outcome in zip(keys, outcomes):
        lost = lost_cell(outcome)
        if lost is None:
            rows.append(outcome.result)
        else:
            rows.append(ScheduleCell(
                backend=backend, schedule=schedule, verdict=VIOLATES,
                seed=cell_seed(seed, backend, schedule), detail=lost[1],
            ))
    return rows
