"""Transaction-lifecycle tracing (the observability tentpole).

Every layer of the simulator reports structured, cycle-stamped events
through a :class:`Tracer`, the simulator's single observation API:

* :class:`NullTracer` — the default.  ``enabled`` is ``False`` and every
  call site guards with ``if tracer.enabled:``, so the hot path pays one
  attribute read per potential event and benchmarks are unaffected.
* :class:`EventTracer` — records :class:`TraceEvent` entries in emission
  order.  Per-processor streams are cycle-monotonic (each processor's
  clock only moves forward), which is what the cycle-attribution
  profiler and the exporters rely on.
* :class:`~repro.obs.metrics.MetricsHub` — aggregates the same events
  into counters, histograms and windowed series.

:func:`tee` fans one call site out to several subscribers, so every
site keeps exactly one ``tracer.enabled`` guard however many observers
are armed.

Tracing is purely observational: attaching an :class:`EventTracer`
never changes a single simulated cycle, so a traced run reproduces the
untraced run bit for bit (tests/obs/test_trace_integration.py).

The event taxonomy (the ``kind`` field of :class:`TraceEvent`) lives in
:data:`repro.obs.events.EVENT_REGISTRY`, the single documented source
that the ``simcheck`` rule ``SIM-E201`` checks every emit site against.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Dict, List, Optional, Sequence

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

    def step(self, scheduler) -> None:
        """Called by the scheduler after every step (the metrics sampler)."""
        pass

    def finalize(self, proc_cycles: List[int]) -> None:
        """Called once by the scheduler with each processor's final clock."""
        pass


class NullTracer(Tracer):
    """The zero-overhead default; every hook is a no-op."""

    __slots__ = ()


#: Shared do-nothing instance installed everywhere by default.
NULL_TRACER = NullTracer()


class EventTracer(Tracer):
    """Records structured events for profiling and export.

    Args:
        sample_memory: record one in N ``tx_read``/``tx_write`` events
            (1 = every access).  Lifecycle and conflict events are never
            sampled.
        trace_coherence: record per-message directory/L1 events.  These
            dominate event volume; disable for long runs.
        max_events: stop recording past this many events (``dropped``
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
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: Final per-processor cycle counts (set by finalize()).
        self.proc_cycles: List[int] = []
        self._access_tick = 0

    # -- recording core --------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- transaction lifecycle -------------------------------------------------

    def tx_begin(self, proc, thread, cycle, system, incarnation):
        self._record(TraceEvent("tx_begin", cycle, proc, thread,
                                data={"system": system, "incarnation": incarnation}))

    def tx_commit(self, proc, thread, cycle):
        self._record(TraceEvent("tx_commit", cycle, proc, thread))

    def tx_abort(self, proc, thread, cycle, cause, by=-1, conflict=""):
        data = {"by": by}
        if conflict:
            data["conflict"] = conflict
        self._record(TraceEvent("tx_abort", cycle, proc, thread, cause=cause,
                                data=data))

    def tx_access(self, proc, thread, cycle, rw, address):
        self._access_tick += 1
        if self._access_tick % self.sample_memory:
            return
        self._record(TraceEvent(f"tx_{rw}", cycle, proc, thread, line=address))

    # -- conflicts and alerts --------------------------------------------------

    def conflict(self, proc, cycle, responder, cst_kind, line):
        self._record(TraceEvent("conflict_detected", cycle, proc, line=line,
                                data={"responder": responder, "cst": cst_kind}))

    def aou_alert(self, proc, cycle, line, reason):
        self._record(TraceEvent("aou_alert", cycle, proc, line=line, cause=reason))

    def stall(self, proc, cycle, dur, enemy=-1, settled=True):
        self._record(TraceEvent("conflict_stall", cycle, proc, dur=dur,
                                data={"enemy": enemy, "settled": settled}))

    # -- overflow machinery ----------------------------------------------------

    def overflow(self, proc, cycle, what, line=-1, dur=0):
        self._record(TraceEvent(f"overflow_{what}", cycle, proc, line=line, dur=dur))

    # -- scheduling ------------------------------------------------------------

    def sched(self, proc, cycle, what, thread, status=""):
        self._record(TraceEvent(what, cycle, proc, thread, cause=status))

    # -- coherence -------------------------------------------------------------

    def coherence(self, proc, cycle, msg, line, responder=-1, detail=""):
        if not self.trace_coherence:
            return
        data = {"responder": responder} if responder >= 0 else None
        self._record(TraceEvent(msg, cycle, proc, line=line, cause=detail,
                                data=data))

    # -- liveness watchdog -----------------------------------------------------

    def watchdog(self, cycle, what, **data):
        self._record(TraceEvent(f"watchdog_{what}", cycle, proc=-1,
                                data=dict(data) if data else None))

    # -- degradation ladder ------------------------------------------------------

    def degrade(self, cycle, what, **data):
        self._record(TraceEvent(f"degrade_{what}", cycle, proc=-1,
                                data=dict(data) if data else None))

    # -- metrics hub -------------------------------------------------------------

    def metrics(self, cycle, what, **data):
        self._record(TraceEvent(f"metrics_{what}", cycle, proc=-1,
                                data=dict(data) if data else None))

    # -- run boundary ----------------------------------------------------------

    def finalize(self, proc_cycles):
        self.proc_cycles = list(proc_cycles)

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def per_processor(self) -> Dict[int, List[TraceEvent]]:
        """Events grouped by processor, preserving emission order."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.proc, []).append(event)
        return grouped


#: Every hook a :class:`Tracer` subscriber can implement.
_HOOKS = tuple(
    name for name, value in vars(Tracer).items()
    if callable(value) and not name.startswith("_")
)


class _Tee(Tracer):
    """Fan-out over several enabled tracers, in argument order.

    Each hook is bound once, at construction, to the subscribers whose
    class overrides it: one subscriber gets its bound method directly
    (no extra frame), several get a generated forwarder, none keep the
    inherited no-op.
    """

    enabled = True

    def __init__(self, tracers: Sequence[Tracer]):
        for name in _HOOKS:
            base = getattr(Tracer, name)
            calls = [
                getattr(tracer, name) for tracer in tracers
                if getattr(type(tracer), name) is not base
            ]
            if len(calls) == 1:
                setattr(self, name, calls[0])
            elif calls:
                setattr(self, name, _forwarder(name, len(calls))(*calls))


@functools.lru_cache(maxsize=None)
def _forwarder(name: str, fanout: int):
    """Factory of functions with ``Tracer.<name>``'s signature that call
    each of ``fanout`` callables in turn.

    Generated once per process (as :mod:`dataclasses` generates
    ``__init__``) so that arguments are forwarded positionally: a
    ``*args, **kwargs`` wrapper costs several times more per event on
    the hot coherence path.
    """
    params = list(inspect.signature(getattr(Tracer, name)).parameters.values())[1:]
    header = ", ".join(str(param.replace(annotation=param.empty)) for param in params)
    forward = ", ".join(
        f"**{param.name}" if param.kind is param.VAR_KEYWORD else param.name
        for param in params
    )
    calls = [f"call{index}" for index in range(fanout)]
    source = (
        f"def make({', '.join(calls)}):\n"
        f"    def fan({header}):\n"
        + "".join(f"        {call}({forward})\n" for call in calls)
        + "    return fan\n"
    )
    namespace: Dict[str, object] = {}
    exec(source, namespace)
    return namespace["make"]


def tee(*tracers: Optional[Tracer]) -> Tracer:
    """One tracer for every enabled argument (``None`` entries skipped).

    Returns :data:`NULL_TRACER` when none is enabled, the tracer itself
    when exactly one is, and a fan-out otherwise.
    """
    live = [tracer for tracer in tracers if tracer is not None and tracer.enabled]
    if not live:
        return NULL_TRACER
    if len(live) == 1:
        return live[0]
    return _Tee(live)

