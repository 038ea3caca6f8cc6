"""Transaction-lifecycle tracing (the observability tentpole).

Every layer of the simulator reports structured, cycle-stamped events
through a :class:`Tracer`, the simulator's single observation API:

* :class:`NullTracer` — the default.  ``enabled`` is ``False`` and every
  call site guards with ``if tracer.enabled:``, so the hot path pays one
  attribute read per potential event and benchmarks are unaffected.
* :class:`EventTracer` — appends one flat record
  ``(kind, cycle, proc, thread, line, dur, cause, data)`` per event to
  its log, in emission order, and builds :class:`TraceEvent` objects
  only when :attr:`EventTracer.events` is read (the exporters, the
  profiler, causality and tests).  Per-processor streams are
  cycle-monotonic (each processor's clock only moves forward), which is
  what the cycle-attribution profiler and the exporters rely on.
* :class:`~repro.obs.metrics.MetricsHub` — a fold over the same
  records into counters, histograms and windowed series.

The log is the one observation mechanism.  Records pile up unfolded
until a scheduler step finds :data:`CHUNK_RECORDS` of them, or until
``finalize`` or a read of the trace; then :meth:`EventTracer.flush`
hands them to the attached hub (every record, in emission order) and
only afterwards applies ``sample_memory``/``trace_coherence``/
``max_events`` to what the trace *keeps*.  :func:`tee` attaches a hub
to the tracer armed beside it, or to a private log that keeps nothing
when the hub is armed alone, so every emit site keeps exactly one
``tracer.enabled`` guard and an armed event costs one append.

The scheduler does not call the tracer after every step.
:meth:`Tracer.step` takes the number of steps run since its last call
and answers how many more may run before the next one: the steps to the
hub's next pressure sample, so samples land on the same steps and log
positions as a per-step call would put them.  The scheduler also calls
as soon as the log holds :data:`CHUNK_RECORDS` records, so the unfolded
log stays under one chunk plus one step's records.  An armed run makes
one call per sample or flush, plus the first step's.

Tracing is purely observational: attaching an :class:`EventTracer`
never changes a single simulated cycle, so a traced run reproduces the
untraced run bit for bit (tests/obs/test_trace_integration.py).

The event taxonomy (the ``kind`` field of :class:`TraceEvent`) lives in
:data:`repro.obs.events.EVENT_REGISTRY`, the single documented source
that the ``simcheck`` rule ``SIM-E201`` checks every emit site against.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, List, Optional, Sequence

from repro.obs.events import ACCESS_KINDS, COHERENCE_KINDS

#: CST kinds reported by ``conflict_detected`` events: the labels of
#: :data:`repro.coherence.tables.CST_LABELS`, plus "SI" for a
#: strong-isolation abort caused by a non-transactional writer.
CST_KINDS = ("R-W", "W-R", "W-W", "SI")


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One structured, cycle-stamped observation."""

    kind: str
    cycle: int
    proc: int
    thread: int = -1
    line: int = -1
    dur: int = 0
    cause: str = ""
    #: Event-specific payload (responder, CST kind, grant state, ...).
    data: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "cycle": self.cycle,
            "proc": self.proc,
        }
        if self.thread >= 0:
            out["thread"] = self.thread
        if self.line >= 0:
            out["line"] = self.line
        if self.dur:
            out["dur"] = self.dur
        if self.cause:
            out["cause"] = self.cause
        if self.data:
            out.update(self.data)
        return out


class Tracer:
    """The tracing interface every simulator layer emits through.

    ``enabled`` is the contract: call sites test it before building any
    event payload, so a disabled tracer costs one attribute read.
    """

    enabled = False

    #: Records logged but not yet folded.  The scheduler reads it after
    #: every step and calls :meth:`step` once it holds
    #: :data:`CHUNK_RECORDS`; a tracer without a log has none.
    _log: Sequence[tuple] = ()

    # -- transaction lifecycle -------------------------------------------------

    def tx_begin(self, proc: int, thread: int, cycle: int, system: str,
                 incarnation: int) -> None:
        pass

    def tx_commit(self, proc: int, thread: int, cycle: int) -> None:
        pass

    def tx_abort(self, proc: int, thread: int, cycle: int, cause: str,
                 by: int = -1, conflict: str = "") -> None:
        pass

    def tx_access(self, proc: int, thread: int, cycle: int, rw: str,
                  address: int) -> None:
        pass

    # -- conflicts and alerts --------------------------------------------------

    def conflict(self, proc: int, cycle: int, responder: int, cst_kind: str,
                 line: int) -> None:
        pass

    def aou_alert(self, proc: int, cycle: int, line: int, reason: str) -> None:
        pass

    def stall(self, proc: int, cycle: int, dur: int, enemy: int = -1,
              settled: bool = True) -> None:
        pass

    # -- overflow machinery ----------------------------------------------------

    def overflow(self, proc: int, cycle: int, what: str, line: int = -1,
                 dur: int = 0) -> None:
        pass

    # -- scheduling ------------------------------------------------------------

    def sched(self, proc: int, cycle: int, what: str, thread: int,
              status: str = "") -> None:
        pass

    # -- coherence -------------------------------------------------------------

    def coherence(self, proc: int, cycle: int, msg: str, line: int,
                  responder: int = -1, detail: str = "") -> None:
        pass

    # -- liveness watchdog -----------------------------------------------------

    def watchdog(self, cycle: int, what: str, **data) -> None:
        """Watchdog escalation ladder events (escalate/boost/abort/recover)."""
        pass

    # -- degradation ladder ------------------------------------------------------

    def degrade(self, cycle: int, what: str, **data) -> None:
        """Resilience-controller actions (escalate/flip/rotate/irrevocable)."""
        pass

    # -- metrics hub -------------------------------------------------------------

    def metrics(self, cycle: int, what: str, **data) -> None:
        """Metrics-hub observations (periodic pressure samples)."""
        pass

    # -- run boundary ----------------------------------------------------------

    def step(self, scheduler, steps: int) -> int:
        """Called by the scheduler with the ``steps`` it ran since the last
        call; returns how many more it may run before the next call.

        The scheduler calls early when the log holds
        :data:`CHUNK_RECORDS` records.  The first call of a run follows
        the run's first step, so 1, the answer here, asks for a call
        after every step.
        """
        return 1

    def finalize(self, proc_cycles: List[int], steps: int = 0) -> None:
        """Called once by the scheduler with each processor's final clock
        and the steps it ran after its last :meth:`step` call."""
        pass


class NullTracer(Tracer):
    """The zero-overhead default; every hook is a no-op."""

    __slots__ = ()


#: Shared do-nothing instance installed everywhere by default.
NULL_TRACER = NullTracer()


#: Unfolded records a scheduler step lets the log hold before it folds
#: them: the bound on the memory a metrics-only run holds.
CHUNK_RECORDS = 4096

#: The step budget of a tracer that needs a call only to flush its log.
NO_STEP_DUE = sys.maxsize

#: ``tx_access``'s ``rw`` -> the kind it records: one shared string per
#: kind, not one built per access.
_ACCESS_KIND = {kind[len("tx_"):]: kind for kind in ACCESS_KINDS}


class EventTracer(Tracer):
    """Records structured events for profiling and export.

    Every recording method appends one record to the log; nothing is
    dropped at record time, so an attached hub folds every event.  The
    settings below apply to what the trace keeps when the log is
    flushed.

    Args:
        sample_memory: keep one in N ``tx_read``/``tx_write`` events
            (1 = every access).  Lifecycle and conflict events are never
            sampled.
        trace_coherence: keep per-message directory/L1 events.  These
            dominate event volume; disable for long runs.
        max_events: keep no more than this many events (``dropped``
            counts the overflow).  ``None`` = unbounded.
    """

    enabled = True

    def __init__(
        self,
        sample_memory: int = 1,
        trace_coherence: bool = True,
        max_events: Optional[int] = None,
    ):
        if sample_memory < 1:
            raise ValueError("sample_memory must be >= 1")
        self.sample_memory = sample_memory
        self.trace_coherence = trace_coherence
        self.max_events = max_events
        #: Final per-processor cycle counts (set by finalize()).
        self.proc_cycles: List[int] = []
        #: Records not yet folded and kept, in emission order.
        self._log: List[tuple] = []
        self._append = self._log.append
        #: Records the settings kept.
        self._kept: List[tuple] = []
        #: ``TraceEvent``s built so far, one per leading record of ``_kept``.
        self._events: List[TraceEvent] = []
        self._dropped = 0
        self._access_tick = 0
        #: The metrics hub folding this log (see :func:`tee`).
        self._hub = None

    # -- transaction lifecycle -------------------------------------------------

    def tx_begin(self, proc, thread, cycle, system, incarnation):
        self._append(("tx_begin", cycle, proc, thread, -1, 0, "",
                      {"system": system, "incarnation": incarnation}))

    def tx_commit(self, proc, thread, cycle):
        self._append(("tx_commit", cycle, proc, thread, -1, 0, "", None))

    def tx_abort(self, proc, thread, cycle, cause, by=-1, conflict=""):
        data = {"by": by}
        if conflict:
            data["conflict"] = conflict
        self._append(("tx_abort", cycle, proc, thread, -1, 0, cause, data))

    def tx_access(self, proc, thread, cycle, rw, address):
        self._append((_ACCESS_KIND[rw], cycle, proc, thread, address, 0, "", None))

    # -- conflicts and alerts --------------------------------------------------

    def conflict(self, proc, cycle, responder, cst_kind, line):
        self._append(("conflict_detected", cycle, proc, -1, line, 0, "",
                      {"responder": responder, "cst": cst_kind}))

    def aou_alert(self, proc, cycle, line, reason):
        self._append(("aou_alert", cycle, proc, -1, line, 0, reason, None))

    def stall(self, proc, cycle, dur, enemy=-1, settled=True):
        self._append(("conflict_stall", cycle, proc, -1, -1, dur, "",
                      {"enemy": enemy, "settled": settled}))

    # -- overflow machinery ----------------------------------------------------

    def overflow(self, proc, cycle, what, line=-1, dur=0):
        self._append((f"overflow_{what}", cycle, proc, -1, line, dur, "", None))

    # -- scheduling ------------------------------------------------------------

    def sched(self, proc, cycle, what, thread, status=""):
        self._append((what, cycle, proc, thread, -1, 0, status, None))

    # -- coherence -------------------------------------------------------------

    def coherence(self, proc, cycle, msg, line, responder=-1, detail=""):
        self._append((msg, cycle, proc, -1, line, 0, detail,
                      {"responder": responder} if responder >= 0 else None))

    # -- liveness watchdog -----------------------------------------------------

    def watchdog(self, cycle, what, **data):
        self._append((f"watchdog_{what}", cycle, -1, -1, -1, 0, "", data or None))

    # -- degradation ladder ------------------------------------------------------

    def degrade(self, cycle, what, **data):
        self._append((f"degrade_{what}", cycle, -1, -1, -1, 0, "", data or None))

    # -- metrics hub -------------------------------------------------------------

    def metrics(self, cycle, what, **data):
        self._append((f"metrics_{what}", cycle, -1, -1, -1, 0, "", data or None))

    # -- run boundary ----------------------------------------------------------

    def step(self, scheduler, steps):
        """Flush a full log; the hub counts the steps and may sample.

        Returns the hub's steps to its next sample; without a hub, a
        budget that never runs out (the log alone brings the next call).
        """
        if len(self._log) >= CHUNK_RECORDS:
            self.flush()
        if self._hub is not None:
            return self._hub.step(scheduler, steps)
        return NO_STEP_DUE

    def finalize(self, proc_cycles, steps=0):
        self.flush()
        self.proc_cycles = list(proc_cycles)
        if self._hub is not None:
            self._hub.finalize(proc_cycles, steps)

    # -- the log ---------------------------------------------------------------

    def attach(self, hub) -> None:
        """Fold every record from now on into ``hub`` (one hub per log).

        The hub also gets this tracer's ``step`` and ``finalize`` calls,
        which count the run's steps, drive its pressure sampler and close
        its run.
        """
        if self._hub is not None and self._hub is not hub:
            raise ValueError("this tracer already feeds a metrics hub")
        self.flush()
        self._hub = hub

    def flush(self) -> None:
        """Fold the unfolded records into the hub, then keep what the
        settings keep and empty the log."""
        log = self._log
        if not log:
            return
        if self._hub is not None:
            self._hub.fold(log)
        records = log
        if self.sample_memory > 1 or not self.trace_coherence:
            records = self._thin(log)
        kept = self._kept
        if self.max_events is None:
            kept.extend(records)
        else:
            room = max(0, self.max_events - len(kept))
            kept.extend(records[:room])
            self._dropped += max(0, len(records) - room)
        log.clear()

    def _thin(self, records: List[tuple]) -> List[tuple]:
        """``records`` without the accesses ``sample_memory`` skips and,
        unless ``trace_coherence``, without coherence messages."""
        sample = self.sample_memory
        coherence = self.trace_coherence
        tick = self._access_tick
        out = []
        for record in records:
            kind = record[0]
            if kind in ACCESS_KINDS:
                tick += 1
                if tick % sample:
                    continue
            elif not coherence and kind in COHERENCE_KINDS:
                continue
            out.append(record)
        self._access_tick = tick
        return out

    # -- inspection ------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """The kept events in emission order."""
        self.flush()
        events, kept = self._events, self._kept
        if len(events) < len(kept):
            events.extend(TraceEvent(*record) for record in kept[len(events):])
        return events

    @property
    def dropped(self) -> int:
        """Events past ``max_events`` that the trace did not keep."""
        self.flush()
        return self._dropped

    def __len__(self) -> int:
        self.flush()
        return len(self._kept)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def per_processor(self) -> Dict[int, List[TraceEvent]]:
        """Events grouped by processor, preserving emission order."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.proc, []).append(event)
        return grouped


def tee(*observers) -> Tracer:
    """The one tracer to install for ``observers`` (``None`` entries skipped).

    An enabled :class:`Tracer` is installed as it is.  A metrics hub
    (an observer that is not a :class:`Tracer`) is attached to the
    :class:`EventTracer` armed beside it, or, armed alone, to a private
    log that keeps nothing (``max_events=0``), which it folds and
    clears.  Returns :data:`NULL_TRACER` when nothing is armed.
    """
    tracers = [obs for obs in observers if isinstance(obs, Tracer) and obs.enabled]
    hubs = [obs for obs in observers if obs is not None and not isinstance(obs, Tracer)]
    if len(tracers) > 1 or len(hubs) > 1:
        raise ValueError("tee arms one tracer and at most one metrics hub")
    if not hubs:
        return tracers[0] if tracers else NULL_TRACER
    log = tracers[0] if tracers else EventTracer(max_events=0)
    if not isinstance(log, EventTracer):
        raise TypeError("a metrics hub folds an EventTracer's log")
    log.attach(hubs[0])
    return log
