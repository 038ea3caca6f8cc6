"""Per-layer host time, measured from outside the simulator.

:class:`LayerTracer` wraps the public entry points of each layer's
classes (``LAYERS``) for the length of a ``with`` block and restores the
originals on exit, so no file of the program changes and the timed
processes never see a wrapper.  Every wrapped call is a span; a layer's
*self time* is its spans' duration minus the part covered by spans of
calls it made.  Spans carry a request id: the scheduler step, i.e. the
index of the resume of a thread's generator.

Every span nests inside the wrapped ``Scheduler.run``, and a callee that
no layer wraps (a contention manager, TL2's ``read``/``write``) adds to
the self time of the wrapped caller around it, usually
``runtime.scheduler`` or ``runtime.txthread``.  So the sum of all self
times is the time inside ``Scheduler.run``, not a coverage check.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.directory import Directory
from repro.coherence.l1 import L1Controller
from repro.core.machine import FlexTMMachine
from repro.core.overflow import OverflowController
from repro.core.processor import FlexTMProcessor
from repro.memory.cache import CacheArray
from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import MetricsHub
from repro.obs.tracer import EventTracer
from repro.runtime.api import TMBackend
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import RunResult, Scheduler
from repro.runtime.txthread import TxThread
from repro.signatures.bloom import Signature

#: Spans kept in memory for export; later spans are only counted.
SPAN_LIMIT = 200_000


def _public(cls, prefix: str = "") -> Tuple[str, ...]:
    return tuple(
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_") and name.startswith(prefix)
    )


_BACKEND = ("check_aborted", "suspend", "resume")

#: layer -> ((class, wrapped methods), ...).  Both backend classes are
#: wrapped because TL2 inherits the hooks from TMBackend.
LAYERS: Dict[str, Tuple[Tuple[type, Tuple[str, ...]], ...]] = {
    "runtime.scheduler": ((Scheduler, ("run",)),),
    "runtime.txthread": ((TxThread, ("run",)),),
    "runtime.backend": ((TMBackend, _BACKEND), (FlexTMRuntime, _BACKEND)),
    "core.machine": ((FlexTMMachine, (
        "tload", "tstore", "load", "store", "cas", "cas_commit", "aload")),),
    "core.processor": ((FlexTMProcessor, (
        "classify_remote", "note_request_conflicts", "flash_commit", "flash_abort",
        "ot_refill", "spill_tmi", "holds_overflow", "on_alert", "begin_transaction",
        "end_transaction")),),
    "core.overflow": ((OverflowController, _public(OverflowController)),),
    "coherence.l1": ((L1Controller, (
        "access", "handle_forwarded", "flash_commit", "flash_abort", "aload", "evict")),),
    "coherence.directory": ((Directory, ("request", "writeback")),),
    "memory.cache": ((CacheArray, ("lookup", "peek", "choose_victim", "install", "remove")),),
    "memory.cache.flash": ((CacheArray, ("flash_transform",)),),
    "signatures": ((Signature, ("insert", "member", "clear", "union", "intersects")),),
    "obs": ((EventTracer, _public(EventTracer)), (MetricsHub, _public(MetricsHub, "on_"))),
}

#: (layer, method) -> what to add up from each call's return value.
TALLIES: Dict[Tuple[str, str], Callable[[object], int]] = {
    ("memory.cache.flash", "flash_transform"): int,
    ("coherence.l1", "access"): lambda result: 1 if result.hit else 0,
}


class LayerTracer:
    """Installs span wrappers on every ``LAYERS`` method while entered."""

    def __init__(self):
        #: (layer, method) -> [calls, self seconds, tallied return values]
        self.counters: Dict[Tuple[str, str], list] = {}
        #: (name, start, duration, step) for the first ``SPAN_LIMIT`` spans.
        self.spans: List[tuple] = []
        #: Generator resumes so far: the request id of the current step.
        self.steps = 0
        self._open: List[float] = []  # child time of each open span
        self._patches: List[tuple] = []

    def __enter__(self) -> "LayerTracer":
        for layer, targets in LAYERS.items():
            for cls, methods in targets:
                for method in methods:
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(layer, method, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            cls, method, original = self._patches.pop()
            setattr(cls, method, original)

    def span(self, counter: list, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Call ``fn(*args, **kwargs)`` as one span; charge its self time to ``counter``."""
        open_spans = self._open
        open_spans.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            counter[0] += 1
            counter[1] += duration - open_spans.pop()
            if open_spans:
                open_spans[-1] += duration
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((name, start, duration, self.steps))

    def _wrap(self, layer: str, method: str, fn: Callable) -> Callable:
        counter = self.counters.setdefault((layer, method), [0, 0.0, 0])
        name = f"{layer}:{fn.__qualname__}"
        span = self.span
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return _TracedGenerator(self, counter, name, fn(*args, **kwargs))
        else:
            tally = TALLIES.get((layer, method))

            def wrapper(*args, **kwargs):
                result = span(counter, name, fn, args, kwargs)
                if tally is not None:
                    counter[2] += tally(result)
                return result
        return functools.update_wrapper(wrapper, fn)

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds), in ``LAYERS`` order."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _), (calls, self_s, _) in self.counters.items():
            totals[layer][0] += calls
            totals[layer][1] += self_s
        return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}

    def method(self, layer: str, method: str) -> Tuple[int, float, int]:
        """(calls, self seconds, tallied return values) of one wrapped method."""
        calls, self_s, tallied = self.counters.get((layer, method), (0, 0.0, 0))
        return calls, self_s, tallied


class _TracedGenerator:
    """Stands in for a thread's generator: each ``send``/``throw`` (the
    only calls the scheduler makes) is one span."""

    def __init__(self, tracer: LayerTracer, counter: list, name: str, gen):
        self._tracer = tracer
        self._counter = counter
        self._name = name
        self._gen = gen

    def send(self, value):
        self._tracer.steps += 1
        return self._tracer.span(self._counter, self._name, self._gen.send, (value,), {})

    def throw(self, exc):
        self._tracer.steps += 1
        return self._tracer.span(self._counter, self._name, self._gen.throw, (exc,), {})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, result: RunResult, traced_s: float,
                  untraced_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run (names as in BENCHMARK.json)."""
    totals = tracer.layer_totals()
    metrics: Dict[str, float] = {}
    for layer, (calls, self_s) in totals.items():
        metrics[f"{layer}.self_share"] = self_s / traced_s
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_us_per_call"] = _ratio(self_s * 1e6, calls)
    accesses = totals["core.machine"][0]
    requests = tracer.method("coherence.directory", "request")[0]
    flash_calls, _, flash_lines = tracer.method("memory.cache.flash", "flash_transform")
    l1_calls, _, l1_hits = tracer.method("coherence.l1", "access")
    metrics.update({
        "memory.cache.flash.lines_per_call": _ratio(flash_lines, flash_calls),
        "runtime.scheduler.steps_per_kcycle": _ratio(tracer.steps * 1000, result.cycles),
        "signatures.calls_per_access": _ratio(totals["signatures"][0], accesses),
        "coherence.directory.requests_per_access": _ratio(requests, accesses),
        "core.overflow.calls_per_request": _ratio(totals["core.overflow"][0], requests),
        "coherence.l1.hit_ratio": _ratio(l1_hits, l1_calls),
        "runtime.commit_ratio": _ratio(result.commits, result.commits + result.aborts),
        "sim_commits_per_mcycle": _ratio(result.commits * 1e6, result.cycles),
        "trace.overhead_x": traced_s / untraced_s,
        # Share of the traced run spent inside Scheduler.run (the rest is set-up).
        "trace.accounted_share": sum(self_s for _, self_s in totals.values()) / traced_s,
    })
    return metrics


def write_chrome_trace(spans: List[tuple], workload: str, path: str) -> Optional[str]:
    """Write the span sample as Chrome ``trace_event`` JSON (opens in Perfetto).

    Returns the schema error ``validate_chrome_trace`` finds, or None.
    """
    origin = min((start for _, start, _, _ in spans), default=0.0)
    events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": f"benchmarks.perf {workload}"}}]
    events.extend(
        {"name": name, "cat": name.split(":", 1)[0], "ph": "X", "pid": 0, "tid": 0,
         "ts": (start - origin) * 1e6, "dur": duration * 1e6, "args": {"step": step}}
        for name, start, duration, step in spans
    )
    document = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w") as handle:
        json.dump(document, handle)
    return validate_chrome_trace(document)
