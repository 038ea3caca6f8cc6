"""Seeded fault-matrix harness: ``python -m repro.harness chaos``.

Runs every TM backend under every fault profile with the chaos engine,
the invariant checker, the livelock watchdog, and the serializability
oracle all armed, then classifies each cell:

``clean``
    the profile's dice never fired (nothing injected).
``masked``
    faults were injected but the run is indistinguishable from the
    fault-free baseline (same commits and aborts, serializable,
    witness-replay-consistent final memory): pure latency.
``degraded``
    faults changed the numbers (extra aborts, watchdog escalations)
    but the committed history is still serializable and the final
    memory replays from the witness: graceful degradation.
``diagnosed``
    the run (or its oracle) raised a structured
    :class:`~repro.errors.ReproError` — an invariant violation or a
    :class:`~repro.verify.history.SerializabilityViolation` — naming
    the damage: the robustness layer caught the fault.
``wedged``
    the run hit its cycle budget without committing every
    transaction, or (at ``--jobs >= 2``) overran the per-cell
    wall-clock budget: a liveness failure.  **Test failure.**
``silent-corruption``
    the history passed the checker but the final memory does not
    equal a serial replay of the witness, or some other undiagnosed
    divergence: exactly the outcome this layer exists to prevent.
    **Test failure.**
``crash``
    a non-``ReproError`` escaped, or the cell's worker process died —
    a bug, not a diagnosis.  **Test failure.**

Each backend's fault-free baseline and each (backend, profile) cell is
one point of :func:`repro.harness.parallel.run_points`; cells are
classified in the parent once every point has returned.

Every cell is deterministic from ``(seed, backend, profile)``: per-cell
chaos seeds are mixed by :func:`repro.adversary.conformance.cell_seed`
(:func:`zlib.crc32`, stable across processes, unlike salted string
hashes), thread bodies draw from
:class:`~repro.sim.rng.DeterministicRng`, and the scheduler is
timing-driven.  Re-running a failing cell with the same flags replays
it bit-identically.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary.conformance import cell_seed
from repro.chaos import ChaosEngine, ChaosSpec, InvariantChecker, LivelockWatchdog, WatchdogSpec
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.errors import ReproError
from repro.harness.matrix import (
    comma_list,
    conclude,
    lost_cell,
    matrix_parser,
    matrix_report,
    positive_int,
    render_backend_list,
    resolve_backends,
    resolve_names,
    run_cells,
)
from repro.harness.parallel import effective_jobs, render_progress
from repro.params import small_test_params
from repro.resilience import ResilienceController
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.sim.rng import DeterministicRng
from repro.verify.history import (
    RecordingBackend,
    SerializabilityViolation,
    check_serializable,
)

#: Classifications that fail the harness (exit status 1).
FAILING = ("crash", "wedged", "silent-corruption")

#: Fault profiles: one adversary per subsystem plus a combined storm.
#: Probabilities are tuned so a profile reliably injects on the default
#: workload size while the run still finishes well inside its budget.
FAULT_PROFILES: Dict[str, Dict[str, float]] = {
    "coherence": dict(coh_drop=0.05, coh_delay=0.05, coh_dup=0.03),
    "aou": dict(alert_drop=0.25, alert_spurious=0.01),
    "signature": dict(sig_false_positive=0.05, sig_false_negative=0.02),
    "overflow": dict(ot_walk_fail=0.30, l1_evict=0.02),
    "sched": dict(sched_preempt=0.005),
    "storm": dict(
        coh_drop=0.02, coh_delay=0.02, coh_dup=0.01,
        alert_drop=0.10, alert_spurious=0.005,
        sig_false_positive=0.02, sig_false_negative=0.01,
        ot_walk_fail=0.10, l1_evict=0.01, sched_preempt=0.002,
    ),
}

NUM_CELLS = 6
DEFAULT_THREADS = 4
DEFAULT_TXNS = 10
DEFAULT_CYCLE_LIMIT = 100_000_000


def profile_spec(profile: str, seed: int, backend: str) -> ChaosSpec:
    """The replayable ChaosSpec for one (seed, backend, profile) cell."""
    if profile not in FAULT_PROFILES:
        raise KeyError(f"unknown fault profile {profile!r}; have {sorted(FAULT_PROFILES)}")
    return ChaosSpec(seed=cell_seed(seed, backend, profile), **FAULT_PROFILES[profile])


@dataclasses.dataclass
class CellResult:
    """One (backend, profile) cell of the fault matrix."""

    backend: str
    profile: str
    classification: str
    injected: Dict[str, int]
    commits: int = 0
    aborts: int = 0
    cycles: int = 0
    aborts_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    watchdog: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Per-rung escalation counters from the run's RunResult (watchdog
    #: ladder always; degradation ladder when a controller was armed).
    escalations: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Windowed commit/abort series from the metrics hub, keyed by
    #: series name (see repro.obs.metrics.TimeSeries.to_dict).
    series: Dict[str, object] = dataclasses.field(default_factory=dict)
    invariant_checks: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.classification not in FAILING

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def _bodies(cells, rng, count, unique):
    """Contended random read/write transactions with globally unique
    write values, so the oracle's reads-from attribution is exact."""

    def make(reads, writes):
        def body(ctx):
            for address in reads:
                yield from ctx.read(address)
            yield from ctx.work(10)
            for address in writes:
                yield from ctx.write(address, next(unique))

        return body

    for _ in range(count):
        reads = rng.sample(cells, rng.randint(1, 3))
        writes = rng.sample(cells, rng.randint(1, 2))
        yield WorkItem(make(tuple(reads), tuple(writes)))


def run_cell(
    backend_name: str,
    seed: int,
    spec: Optional[ChaosSpec],
    threads: int,
    txns: int,
    cycle_limit: int,
    mode: ConflictMode = ConflictMode.EAGER,
    controller: Optional[ResilienceController] = None,
) -> Dict[str, object]:
    """One instrumented run; returns raw observations (no classification).

    ``spec`` arms the chaos engine, the invariant checker and the
    livelock watchdog; ``None`` is the fault-free baseline.
    ``controller`` additionally arms the degradation ladder (the
    ``degrade`` harness).

    Keys: ``commits``/``aborts``/``cycles``/``aborts_by_kind``,
    ``injected`` (site.kind -> count), ``watchdog`` telemetry,
    ``commits_by_rung``/``recovery`` ladder telemetry,
    ``serializable``/``memory_ok`` oracle verdicts, and ``error`` /
    ``error_kind`` when something was raised (``repro`` for structured
    ReproErrors, ``crash`` for everything else).
    """
    from repro.harness.runner import SYSTEMS
    from repro.obs.metrics import MetricsHub

    machine = FlexTMMachine(small_test_params(threads))
    hub = MetricsHub()
    machine.set_metrics(hub)
    engine = None
    if spec is not None:
        engine = ChaosEngine(spec, stats=machine.stats)
        machine.set_chaos(engine)
        machine.set_invariants(InvariantChecker())
    if controller is not None:
        machine.set_resilience(controller)
    backend = RecordingBackend(SYSTEMS[backend_name](machine, mode))
    if controller is not None:
        controller.bind_manager(getattr(backend.inner, "manager", None))
    line = machine.params.line_bytes
    cells = [machine.allocate(line, line_aligned=True) for _ in range(NUM_CELLS)]
    for index, cell in enumerate(cells):
        machine.memory.write(cell, index)
        backend.recorder.note_initial(cell, index)
    unique = itertools.count(1000)
    tx_threads = [
        TxThread(i, backend, _bodies(cells, DeterministicRng(seed * 7919 + i), txns, unique))
        for i in range(threads)
    ]
    watchdog = LivelockWatchdog(WatchdogSpec()) if spec is not None else None
    out: Dict[str, object] = {
        "commits": 0,
        "aborts": 0,
        "cycles": 0,
        "aborts_by_kind": {},
        "escalations": {},
        "series": {},
        "injected": {},
        "watchdog": {},
        "invariant_checks": 0,
        "commits_by_rung": {},
        "recovery": {},
        "serializable": False,
        "memory_ok": False,
        "error": "",
        "error_kind": "",
    }
    try:
        result = Scheduler(machine, tx_threads, watchdog=watchdog).run(
            cycle_limit=cycle_limit
        )
        out["commits"] = result.commits
        out["aborts"] = result.aborts
        out["cycles"] = result.cycles
        out["aborts_by_kind"] = dict(result.aborts_by_kind)
        out["escalations"] = dict(result.escalations)
        out["series"] = {
            name: hub.series(name).to_dict()
            for name in ("tx.commits", "tx.aborts")
        }
    except ReproError as error:
        out["error"] = f"{type(error).__name__}: {error}"
        out["error_kind"] = "repro"
    except Exception as error:  # noqa: BLE001 — a crash IS the finding
        out["error"] = f"{type(error).__name__}: {error}"
        out["error_kind"] = "crash"
    if engine is not None:
        out["injected"] = dict(engine.injected)
    if watchdog is not None:
        out["watchdog"] = {
            "escalations": watchdog.escalations,
            "forced_aborts": watchdog.forced_aborts,
            "recoveries": watchdog.recoveries,
        }
    if machine.invariants is not None:
        out["invariant_checks"] = (
            machine.invariants.inline_checks + machine.invariants.sweeps
        )
    if controller is not None:
        out["commits_by_rung"] = dict(controller.commits_by_rung)
        recovery = machine.stats.histogram("resilience.recovery_cycles")
        out["recovery"] = {
            "count": recovery.count,
            "mean": int(recovery.mean),
            "max": recovery.maximum,
        }
    if out["error_kind"]:
        return out
    # Oracle: the committed history must be conflict-serializable, and
    # (when every transaction committed) the final memory must equal a
    # serial replay of the witness order.
    try:
        witness = check_serializable(backend.recorder)
        out["serializable"] = True
    except SerializabilityViolation as error:
        out["error"] = f"SerializabilityViolation: {error}"
        out["error_kind"] = "repro"
        return out
    if out["commits"] == threads * txns:
        replay = dict(backend.recorder.initial_values)
        for txn in witness:
            replay.update(txn.writes)
        out["memory_ok"] = all(
            machine.memory.read(cell) == replay[cell] for cell in cells
        )
    return out


def triage(run: Dict[str, object], expected_commits: int) -> Optional[Tuple[str, str]]:
    """The head of every classification ladder, as ``(class, detail)``.

    crash → diagnosed → wedged → silent-corruption; ``None`` when the
    run passed all four, and the harness applies its own tail.
    """
    if run["error_kind"] == "crash":
        return "crash", str(run["error"])
    if run["error_kind"] == "repro":
        return "diagnosed", str(run["error"])
    if run["commits"] < expected_commits:
        return "wedged", f"{run['commits']}/{expected_commits} commits at cycle budget"
    if not run["memory_ok"]:
        return "silent-corruption", "final memory diverges from serial witness replay"
    return None


def _classify(run: Dict[str, object], baseline: Dict[str, object],
              expected_commits: int, backend: str = "",
              profile: str = "") -> CellResult:
    """Apply the classification ladder to one faulted run."""
    verdict = triage(run, expected_commits)
    if verdict is None:
        if not sum(run["injected"].values()):
            verdict = "clean", ""
        elif (run["commits"], run["aborts"]) == (baseline["commits"], baseline["aborts"]):
            verdict = "masked", ""
        else:
            verdict = "degraded", ""
    classification, detail = verdict
    return CellResult(
        backend=backend, profile=profile,
        classification=classification,
        injected=dict(run["injected"]),
        commits=int(run["commits"]),
        aborts=int(run["aborts"]),
        cycles=int(run["cycles"]),
        aborts_by_kind=dict(run["aborts_by_kind"]),
        watchdog=dict(run["watchdog"]),
        escalations=dict(run["escalations"]),
        series=dict(run["series"]),
        invariant_checks=int(run["invariant_checks"]),
        detail=detail,
    )


#: How the chaos and degrade ladders label a cell the executor lost.
LOST_CLASSIFICATION = {"timeout": "wedged", "crash": "crash"}


def run_chaos_matrix(
    backends: Sequence[str],
    profiles: Sequence[str],
    seed: int,
    jobs: int = 1,
    threads: int = DEFAULT_THREADS,
    txns: int = DEFAULT_TXNS,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    progress=None,
) -> List[CellResult]:
    """The full matrix, rows backend-major in input order.

    Each backend's fault-free baseline and each of its profiles is one
    point.  Classification happens here, once every point returned: a
    backend whose baseline fails reports only its baseline row.
    """
    expected = threads * txns
    cells = []
    for name in backends:
        cells.append((f"{name}/baseline", functools.partial(
            run_cell, name, seed, None, threads, txns, cycle_limit)))
        for profile in profiles:
            cells.append((f"{name}/{profile}", functools.partial(
                run_cell, name, seed, profile_spec(profile, seed, name),
                threads, txns, cycle_limit)))
    outcomes = iter(run_cells(cells, jobs, progress))
    rows: List[CellResult] = []
    for name in backends:
        baseline = next(outcomes)
        faulted = [next(outcomes) for _ in profiles]
        lost = lost_cell(baseline)
        failure = (
            (LOST_CLASSIFICATION[lost[0]], lost[1]) if lost
            else triage(baseline.result, expected)
        )
        if failure is not None:
            run = baseline.result or {}
            rows.append(CellResult(
                backend=name, profile="baseline",
                # A fault-free run has nothing to diagnose: a structured
                # error there still fails the matrix.
                classification=failure[0] if failure[0] in FAILING
                else "silent-corruption",
                injected={}, commits=run.get("commits", 0),
                aborts=run.get("aborts", 0), cycles=run.get("cycles", 0),
                detail=f"fault-free baseline failed: {failure[1]}",
            ))
            continue
        for profile, outcome in zip(profiles, faulted):
            lost = lost_cell(outcome)
            if lost is not None:
                rows.append(CellResult(
                    backend=name, profile=profile,
                    classification=LOST_CLASSIFICATION[lost[0]],
                    injected={}, detail=lost[1],
                ))
            else:
                rows.append(_classify(
                    outcome.result, baseline.result, expected, name, profile
                ))
    return rows


# -- CLI ----------------------------------------------------------------------


def resolve_profiles(names: Sequence[str]) -> List[str]:
    return resolve_names(names, FAULT_PROFILES, "profile")


def fault_matrix_parser(command: str, description: str, report: str):
    """The matrix argument block plus the chaos/degrade fault options."""
    parser = matrix_parser(command, description, DEFAULT_CYCLE_LIMIT, report)
    parser.add_argument("--profiles", default=",".join(FAULT_PROFILES),
                        help="comma-separated fault profiles (default: all)")
    parser.add_argument("--profile", action="append", default=None,
                        metavar="NAME", dest="profile",
                        help="run a single fault profile (repeatable; "
                        "overrides --profiles)")
    parser.add_argument("--threads", type=positive_int, default=DEFAULT_THREADS,
                        help="transactional threads per run")
    parser.add_argument("--txns", type=positive_int, default=DEFAULT_TXNS,
                        help="transactions per thread per run")
    return parser


def render_matrix(rows: List[CellResult]) -> str:
    """Human-readable report table."""
    lines = []
    header = f"{'backend':<10} {'profile':<10} {'class':<17} {'inj':>5} {'commits':>7} {'aborts':>7}  detail"
    lines.append(header)
    lines.append("-" * len(header))
    for cell in rows:
        marker = "" if cell.ok else "  <-- FAIL"
        lines.append(
            f"{cell.backend:<10} {cell.profile:<10} {cell.classification:<17} "
            f"{sum(cell.injected.values()):>5} {cell.commits:>7} {cell.aborts:>7}  "
            f"{cell.detail}{marker}"
        )
    return "\n".join(lines) + "\n"


def run_chaos_command(argv=None) -> int:
    """``python -m repro.harness chaos`` — run the seeded fault matrix."""
    parser = fault_matrix_parser(
        "chaos",
        "Run every TM backend under seeded fault injection "
        "with invariants, watchdog, and serializability oracle armed; "
        "fail on any crash, wedge, or silent corruption.",
        "write the JSON fault-matrix report here",
    )
    parser.add_argument("--list-profiles", action="store_true",
                        help="list the fault profiles and exit")
    args = parser.parse_args(argv)

    if args.list_profiles:
        sys.stdout.write("fault profiles:\n")
        for name, knobs in FAULT_PROFILES.items():
            settings = ", ".join(f"{k}={v}" for k, v in sorted(knobs.items()))
            sys.stdout.write(f"  {name:<10} {settings}\n")
        return 0
    if args.list_backends:
        sys.stdout.write(render_backend_list())
        return 0

    backends = resolve_backends(args.backend or comma_list(args.backends))
    profiles = resolve_profiles(args.profile or comma_list(args.profiles))
    if not args.quiet:
        sys.stderr.write(
            f"chaos: seed {args.seed}, {len(backends)} backend(s) x "
            f"{len(profiles)} profile(s), {effective_jobs(args.jobs)} worker(s)\n"
        )
    rows = run_chaos_matrix(
        backends, profiles, args.seed, jobs=args.jobs, threads=args.threads,
        txns=args.txns, cycle_limit=args.cycles,
        progress=None if args.quiet else render_progress,
    )
    sys.stdout.write(render_matrix(rows))
    document = matrix_report(
        "repro.chaos/v1", rows, "classification",
        seed=args.seed, backends=backends, profiles=profiles,
        threads=args.threads, txns=args.txns, cycle_limit=args.cycles,
    )
    return conclude(
        "chaos", document, args.report,
        [f"{c.backend}/{c.profile}: {c.classification}" for c in rows if not c.ok],
        "every injected fault was masked, degraded gracefully, or diagnosed",
    )
