"""Parallel experiment executor with deterministic fan-out.

Every paper artifact is a cartesian sweep over independent
``(workload, system, threads, mode, seed)`` points, and each point is a
sealed deterministic simulation: it builds a fresh machine, runs, and
returns a :class:`~repro.runtime.scheduler.RunResult` that depends only
on its :class:`~repro.harness.runner.ExperimentConfig`.  Host-level
parallelism is therefore free speedup with zero result drift — this
module fans points out across CPU cores while guaranteeing:

* **Determinism** — results come back ordered by submission index, so a
  ``--jobs 8`` sweep produces bit-identical rows to ``--jobs 1``
  regardless of completion order.
* **Isolation** — each point runs in its own forked process; a crashed
  or hung worker yields a structured :class:`PointOutcome` error, never
  a dead sweep.
* **Bounded retry** — crashed and timed-out points are relaunched up to
  ``retries`` extra times before being reported as failures.
  Deterministic Python exceptions (bad workload name, simulator
  assertion) are *not* retried: rerunning a pure function cannot
  change its answer.

``--jobs 1`` (the default for library callers) never forks: points run
inline, preserving the exact serial code path.

A point is either an experiment config or a matrix cell's task; the
chaos, degrade and adversary matrices fan out one point per cell
through :mod:`repro.harness.matrix`.

The engine also measures what it runs: :func:`bench_payload` renders a
machine-readable ``BENCH_sweep.json`` document (per-point wall time,
totals, speedup vs. a serial estimate, host metadata) consumed by the
CI bench gate (:mod:`repro.harness.benchgate`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import platform
import sys
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.runtime.scheduler import RunResult

#: Schema identifier stamped into every BENCH_sweep.json document.
BENCH_SCHEMA = "repro.bench_sweep/v1"

#: Keys every BENCH_sweep.json document must carry.
BENCH_REQUIRED_KEYS = (
    "schema",
    "jobs",
    "num_points",
    "num_errors",
    "total_wall_time_s",
    "serial_estimate_s",
    "speedup_vs_serial_estimate",
    "points",
    "host",
)

#: Keys every per-point entry in BENCH_sweep.json must carry.
BENCH_POINT_KEYS = ("label", "ok", "status", "attempts", "wall_time_s")


@dataclasses.dataclass
class PointSpec:
    """One unit of fan-out work: a config plus optional trace output.

    Traces are written *inside* the worker (the tracer never crosses
    the process boundary), into ``trace_dir/trace_name.json``.

    A matrix cell (see :mod:`repro.harness.matrix`) instead sets
    ``task``, a zero-argument callable whose return value becomes the
    outcome's ``result``; ``config`` and the artifact fields stay unset.
    """

    config: Optional[ExperimentConfig] = None
    label: str = ""
    task: Optional[Callable[[], object]] = None
    trace_dir: Optional[str] = None
    trace_name: Optional[str] = None
    #: Metrics artifacts mirror traces: armed and written in the worker,
    #: into ``metrics_dir/metrics_name.metrics.json``.
    metrics_dir: Optional[str] = None
    metrics_name: Optional[str] = None


@dataclasses.dataclass
class PointOutcome:
    """What happened to one point, in submission order.

    ``status`` is ``"ok"`` or one of the failure kinds:

    * ``"exception"`` — the point raised inside ``run_experiment`` or
      its task (deterministic; never retried).
    * ``"crash"`` — the worker process died without reporting
      (segfault, ``os._exit``, OOM kill).
    * ``"timeout"`` — the point exceeded the per-point budget and the
      worker was terminated.
    """

    index: int
    label: str
    ok: bool
    status: str
    #: A RunResult for a config point; the task's return value for a cell.
    result: Optional[object] = None
    error: str = ""
    attempts: int = 1
    wall_time: float = 0.0
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None


def unwrap(outcome: "PointOutcome") -> RunResult:
    """Return the outcome's result, raising loudly on a failed point.

    Figure/overflow harnesses use this: a missing measurement point has
    no sensible error row in a figure, so the failure (including the
    worker's message) aborts artifact generation instead.
    """
    if not outcome.ok:
        raise RuntimeError(
            f"measurement point {outcome.label or outcome.index} failed "
            f"({outcome.status}): {outcome.error}"
        )
    assert outcome.result is not None
    return outcome.result


def effective_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``--jobs`` value: ``None``/0 means one per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _execute_point(config: ExperimentConfig) -> RunResult:
    """Indirection over :func:`run_experiment`.

    Workers call through this module-level name so tests can substitute
    crashing / hanging behaviour (fork-started children inherit the
    patched module).
    """
    return run_experiment(config)


def _run_one(spec: PointSpec):
    """Execute one point (in-process).

    Returns ``(result, trace_path, metrics_path)``.
    """
    if spec.task is not None:
        return spec.task(), None, None
    config = spec.config
    tracer = None
    if spec.trace_dir:
        from repro.harness.trace import sweep_tracer

        tracer = sweep_tracer()
        config = dataclasses.replace(config, tracer=tracer)
    hub = None
    if spec.metrics_dir:
        from repro.harness.metrics import sweep_hub

        hub = sweep_hub()
        config = dataclasses.replace(config, metrics=hub)
    result = _execute_point(config)
    trace_path = None
    if tracer is not None:
        from repro.harness.trace import write_point_trace

        trace_path = write_point_trace(
            tracer, spec.trace_dir, spec.trace_name or spec.label or "point"
        )
        # The tracer stays in the worker; results travel light.
        result.trace = None
    metrics_path = None
    if hub is not None:
        from repro.harness.metrics import write_point_metrics

        metrics_path = write_point_metrics(
            hub, result, spec.metrics_dir, spec.metrics_name or spec.label or "point"
        )
        # Like the tracer: the hub stays in the worker.
        result.metrics = None
    return result, trace_path, metrics_path


def _worker(conn, spec: PointSpec) -> None:
    """Child-process entry: run one point, ship the outcome, exit."""
    try:
        result, trace_path, metrics_path = _run_one(spec)
        conn.send(("ok", result, trace_path, metrics_path))
    except BaseException as exc:  # noqa: BLE001 — everything becomes a row
        try:
            conn.send(
                ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
        except Exception:
            pass  # parent sees EOF and reports a crash
    finally:
        conn.close()


def _mp_context():
    """Prefer fork (cheap, inherits loaded modules); fall back cleanly."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX hosts
        return multiprocessing.get_context()


class _Live:
    """Book-keeping for one in-flight worker process."""

    __slots__ = ("index", "spec", "process", "conn", "started", "deadline")

    def __init__(self, index, spec, process, conn, started, deadline):
        self.index = index
        self.spec = spec
        self.process = process
        self.conn = conn
        self.started = started
        self.deadline = deadline


def run_points(
    points: Sequence[PointSpec],
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[int, int, PointOutcome], None]] = None,
) -> List[PointOutcome]:
    """Run every point; return outcomes ordered by submission index.

    ``jobs <= 1`` runs inline (no subprocesses, no timeout enforcement —
    there is nothing to interrupt in-process).  ``jobs > 1`` fans out
    across worker processes, at most ``jobs`` in flight.  ``progress``
    is invoked as ``progress(done, total, outcome)`` each time a point
    reaches its final state, in completion order.
    """
    specs = list(points)
    total = len(specs)
    jobs = effective_jobs(jobs)
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if jobs <= 1 or total <= 1:
        return _run_serial(specs, progress)
    return _run_pool(specs, jobs, timeout, retries, progress)


def _run_serial(specs, progress) -> List[PointOutcome]:
    outcomes: List[PointOutcome] = []
    for index, spec in enumerate(specs):
        started = time.perf_counter()
        try:
            result, trace_path, metrics_path = _run_one(spec)
            outcome = PointOutcome(
                index=index,
                label=spec.label,
                ok=True,
                status="ok",
                result=result,
                wall_time=time.perf_counter() - started,
                trace_path=trace_path,
                metrics_path=metrics_path,
            )
        except Exception as exc:
            outcome = PointOutcome(
                index=index,
                label=spec.label,
                ok=False,
                status="exception",
                error=f"{type(exc).__name__}: {exc}",
                wall_time=time.perf_counter() - started,
            )
        outcomes.append(outcome)
        if progress is not None:
            progress(len(outcomes), len(specs), outcome)
    return outcomes


def _run_pool(specs, jobs, timeout, retries, progress) -> List[PointOutcome]:
    context = _mp_context()
    outcomes: List[Optional[PointOutcome]] = [None] * len(specs)
    attempts = [0] * len(specs)
    spent = [0.0] * len(specs)
    pending = deque(range(len(specs)))
    live: Dict[object, _Live] = {}
    done = 0

    def launch(index: int) -> None:
        spec = specs[index]
        attempts[index] += 1
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker, args=(child_conn, spec), daemon=True
        )
        process.start()
        child_conn.close()
        now = time.perf_counter()
        live[parent_conn] = _Live(
            index, spec, process, parent_conn, now,
            now + timeout if timeout else None,
        )

    def finalize(entry: _Live, outcome: PointOutcome) -> None:
        nonlocal done
        outcome.attempts = attempts[entry.index]
        outcome.wall_time = spent[entry.index]
        outcomes[entry.index] = outcome
        done += 1
        if progress is not None:
            progress(done, len(specs), outcome)

    def retire(entry: _Live, status: str, error: str) -> None:
        """A worker died (crash/timeout): retry if budget remains."""
        if attempts[entry.index] <= retries:
            pending.appendleft(entry.index)
            return
        finalize(
            entry,
            PointOutcome(
                index=entry.index,
                label=entry.spec.label,
                ok=False,
                status=status,
                error=error,
            ),
        )

    try:
        while pending or live:
            while pending and len(live) < jobs:
                launch(pending.popleft())
            wait_budget = None
            if timeout:
                now = time.perf_counter()
                wait_budget = max(
                    0.0, min(entry.deadline for entry in live.values()) - now
                )
            ready = connection_wait(list(live), timeout=wait_budget)
            now = time.perf_counter()
            for conn in ready:
                entry = live.pop(conn)
                spent[entry.index] += now - entry.started
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                conn.close()
                entry.process.join()
                if message is None:
                    code = entry.process.exitcode
                    retire(entry, "crash", f"worker died (exit code {code})")
                elif message[0] == "ok":
                    _, result, trace_path, metrics_path = message
                    finalize(
                        entry,
                        PointOutcome(
                            index=entry.index,
                            label=entry.spec.label,
                            ok=True,
                            status="ok",
                            result=result,
                            trace_path=trace_path,
                            metrics_path=metrics_path,
                        ),
                    )
                else:
                    _, error, _trace_back = message
                    finalize(
                        entry,
                        PointOutcome(
                            index=entry.index,
                            label=entry.spec.label,
                            ok=False,
                            status="exception",
                            error=error,
                        ),
                    )
            if timeout:
                for conn, entry in list(live.items()):
                    if now < entry.deadline:
                        continue
                    del live[conn]
                    spent[entry.index] += now - entry.started
                    _stop(entry.process)
                    conn.close()
                    retire(
                        entry,
                        "timeout",
                        f"point exceeded {timeout:g}s budget",
                    )
    finally:
        for entry in live.values():
            _stop(entry.process)
            entry.conn.close()
    return [outcome for outcome in outcomes if outcome is not None]


def _stop(process) -> None:
    """Terminate a worker, escalating to SIGKILL if it lingers."""
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(1.0)
    if process.is_alive():  # pragma: no cover — SIGTERM is always enough here
        process.kill()
        process.join()


# -- BENCH_sweep.json ---------------------------------------------------------


def host_metadata() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def bench_payload(
    outcomes: Sequence[PointOutcome],
    jobs: int,
    total_wall_time: float,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Render outcomes as the ``BENCH_sweep.json`` document.

    ``serial_estimate_s`` sums per-point wall times — what the sweep
    would have cost on one core — so ``speedup_vs_serial_estimate``
    tracks the fan-out's real win on this host.
    """
    serial_estimate = sum(outcome.wall_time for outcome in outcomes)
    errors = [outcome for outcome in outcomes if not outcome.ok]
    document: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "jobs": jobs,
        "num_points": len(outcomes),
        "num_errors": len(errors),
        "total_wall_time_s": round(total_wall_time, 6),
        "serial_estimate_s": round(serial_estimate, 6),
        "speedup_vs_serial_estimate": round(
            serial_estimate / total_wall_time, 4
        ) if total_wall_time > 0 else 0.0,
        "points": [
            {
                "label": outcome.label,
                "ok": outcome.ok,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "wall_time_s": round(outcome.wall_time, 6),
                **({"error": outcome.error} if outcome.error else {}),
            }
            for outcome in outcomes
        ],
        "host": host_metadata(),
    }
    if extra:
        document["sweep"] = extra
    return document


def write_bench_json(
    path: str,
    outcomes: Sequence[PointOutcome],
    jobs: int,
    total_wall_time: float,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    import json

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            bench_payload(outcomes, jobs, total_wall_time, extra=extra),
            handle,
            indent=2,
            sort_keys=False,
        )
        handle.write("\n")


def validate_bench_payload(document: object) -> Optional[str]:
    """Schema check for BENCH_sweep.json; returns an error or None."""
    if not isinstance(document, dict):
        return "document is not a JSON object"
    if document.get("schema") != BENCH_SCHEMA:
        return f"schema is {document.get('schema')!r}, expected {BENCH_SCHEMA!r}"
    for key in BENCH_REQUIRED_KEYS:
        if key not in document:
            return f"missing key {key!r}"
    points = document["points"]
    if not isinstance(points, list):
        return "points is not a list"
    if len(points) != document["num_points"]:
        return "num_points does not match len(points)"
    for position, point in enumerate(points):
        if not isinstance(point, dict):
            return f"points[{position}] is not an object"
        for key in BENCH_POINT_KEYS:
            if key not in point:
                return f"points[{position}] missing key {key!r}"
    errors = sum(1 for point in points if not point["ok"])
    if errors != document["num_errors"]:
        return "num_errors does not match error points"
    return None


def render_progress(done: int, total: int, outcome: PointOutcome) -> None:
    """Default progress reporter: one stderr line per finished point."""
    marker = "ok" if outcome.ok else outcome.status.upper()
    label = outcome.label or f"point {outcome.index}"
    sys.stderr.write(
        f"[{done}/{total}] {label}: {marker} ({outcome.wall_time:.2f}s"
        + (f", {outcome.attempts} attempts" if outcome.attempts > 1 else "")
        + ")\n"
    )
    sys.stderr.flush()
