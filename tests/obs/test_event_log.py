"""The event log: one record per armed event, folded by the metrics hub.

The tracer appends every event to one log; the hub folds every record
and only then do the tracer's ``sample_memory``/``trace_coherence``/
``max_events`` settings thin what the trace keeps.  Pinned here:

* the hub's aggregates do not depend on what the tracer beside it keeps;
* folding does not change what the trace keeps;
* a metrics-only run holds at most one chunk of unfolded records;
* the scheduler calls the observers only on the steps where a sample
  or a flush is due.
"""

import collections
import dataclasses

import pytest

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.trace import sweep_tracer
from repro.obs.events import (
    ACCESS_KINDS,
    COHERENCE_KINDS,
    EVENT_KINDS,
    RECORD_FIELDS,
    SCHED_KINDS,
)
from repro.obs.export import to_jsonl
from repro.obs.metrics import MetricsHub
from repro.obs.tracer import CHUNK_RECORDS, EventTracer, TraceEvent, Tracer
from repro.params import small_test_params
from repro.resilience import DegradeSpec

CYCLES = 30_000

#: FlexTM eager, TL2, an oversubscribed quantum run and a degrade run.
RUNS = {
    "flextm-eager": dict(workload="HashTable", system="FlexTM"),
    "tl2": dict(workload="RBTree", system="TL2"),
    "quantum": dict(workload="RBTree", system="FlexTM", threads=8,
                    processors=4, quantum=2_000),
    "degrade": dict(workload="HashTable", system="FlexTM",
                    degrade=DegradeSpec(boost_after=1, eager_after=2,
                                        irrevocable_after=3)),
}

#: Tracer settings that keep less than the log records.
TRACERS = {
    "default": EventTracer,
    "sample_memory=7": lambda: EventTracer(sample_memory=7),
    "trace_coherence=False": lambda: EventTracer(trace_coherence=False),
    "max_events=500": lambda: EventTracer(max_events=500),
    "sweep_tracer": sweep_tracer,
}


def _run(run, **observers):
    base = dict(threads=4, cycle_limit=CYCLES, seed=9,
                params=small_test_params(4))
    base.update(RUNS[run])
    base.update(observers)
    return run_experiment(ExperimentConfig(**base))


@pytest.fixture(scope="module")
def alone_hubs():
    """Each run's hub armed alone, computed once."""
    hubs = {}
    for run in RUNS:
        hubs[run] = MetricsHub()
        _run(run, metrics=hubs[run])
    return hubs


@pytest.mark.parametrize("tracer", TRACERS)
@pytest.mark.parametrize("run", RUNS)
def test_hub_is_the_same_alone_and_beside_any_tracer(run, tracer, alone_hubs):
    hub = MetricsHub()
    _run(run, metrics=hub, tracer=TRACERS[tracer]())
    assert hub.to_dict() == alone_hubs[run].to_dict()


@pytest.mark.parametrize("tracer", TRACERS)
@pytest.mark.parametrize("run", RUNS)
def test_folding_does_not_change_the_trace(run, tracer):
    # A hub that never samples adds no metrics_sample events, so the
    # trace beside it must be the tracer-alone trace exactly.
    alone = TRACERS[tracer]()
    _run(run, tracer=alone)
    beside = TRACERS[tracer]()
    _run(run, tracer=beside, metrics=MetricsHub(sample_interval=10**9))
    assert beside.events == alone.events
    assert list(to_jsonl(beside)) == list(to_jsonl(alone))
    assert beside.dropped == alone.dropped


def test_metrics_only_run_holds_at_most_one_chunk(monkeypatch):
    step = EventTracer.step
    held = []

    def observed_step(self, scheduler, steps):
        held.append(len(self._log))
        budget = step(self, scheduler, steps)
        assert len(self._log) < CHUNK_RECORDS
        assert not self._kept  # the private log keeps nothing
        return budget

    monkeypatch.setattr(EventTracer, "step", observed_step)
    hub = MetricsHub()
    result = _run("flextm-eager", metrics=hub, cycle_limit=4 * CYCLES)
    assert hub.counters["tx.commits"] == result.commits
    # The run logged several chunks, each folded at a step boundary.
    assert sum(count >= CHUNK_RECORDS for count in held) >= 2
    assert max(held) < 2 * CHUNK_RECORDS


class _StepCounter(Tracer):
    """An enabled tracer that asks for a call after every step."""

    enabled = True

    def __init__(self):
        self.steps = 0

    def step(self, scheduler, steps):
        assert steps == 1
        self.steps += steps
        return 1


def test_observers_are_called_on_sample_and_flush_steps_only(monkeypatch):
    counter = _StepCounter()
    _run("flextm-eager", tracer=counter, cycle_limit=4 * CYCLES)
    calls = collections.Counter()
    flushes = []

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            if name == "EventTracer.step":
                flushes.append(len(self._log) >= CHUNK_RECORDS)
            return method(self, *args)
        return wrapper

    for cls, name in ((EventTracer, "step"), (MetricsHub, "step"), (MetricsHub, "sample")):
        monkeypatch.setattr(cls, name, counted(f"{cls.__name__}.{name}", getattr(cls, name)))
    hub = MetricsHub()
    _run("flextm-eager", tracer=EventTracer(), metrics=hub, cycle_limit=4 * CYCLES)
    samples = hub.samples_taken
    assert samples == counter.steps // hub.sample_interval > 0
    assert calls["MetricsHub.sample"] == samples
    # The step count reaches the hub in full (the last steps through
    # ``finalize``), so a second run would sample on the same steps.
    assert hub._steps == counter.steps
    # One observer call per sample or flush, plus the first step's.
    assert calls["MetricsHub.step"] == calls["EventTracer.step"]
    assert sum(flushes) >= 2
    assert calls["EventTracer.step"] <= samples + sum(flushes) + 1
    assert calls["EventTracer.step"] < counter.steps // 100


def test_records_have_the_trace_event_fields():
    assert RECORD_FIELDS == tuple(
        field.name for field in dataclasses.fields(TraceEvent)
    )
    tracer = EventTracer()
    tracer.coherence(1, 20, "coh_response", 64, responder=2, detail="Shared")
    assert tracer.events == [
        TraceEvent("coh_response", 20, 1, line=64, cause="Shared",
                   data={"responder": 2}),
    ]


def test_thinned_kind_groups_are_registered():
    assert ACCESS_KINDS | COHERENCE_KINDS | SCHED_KINDS <= EVENT_KINDS
    assert COHERENCE_KINDS == {kind for kind in EVENT_KINDS if kind.startswith("coh_")}
