"""Unit tests for the tracer layer: recording, sampling, classification."""

import pytest

from repro.coherence.messages import AccessKind, ResponseKind
from repro.coherence.tables import CST_LABELS, REQUESTER_CST
from repro.obs.metrics import MetricsHub
from repro.obs.tracer import (
    CST_KINDS,
    EventTracer,
    NULL_TRACER,
    NullTracer,
    Tracer,
    tee,
)
from repro.obs.events import WOUND_KIND_REGISTRY


def test_null_tracer_is_disabled_and_silent():
    assert NULL_TRACER.enabled is False
    # Every hook is a no-op; none may raise.
    NULL_TRACER.tx_begin(0, 0, 0, "FlexTM", 1)
    NULL_TRACER.tx_commit(0, 0, 10)
    NULL_TRACER.tx_abort(0, 0, 10, "cause", by=1)
    NULL_TRACER.conflict(0, 5, 1, "R-W", 64)
    NULL_TRACER.stall(0, 5, 10)
    NULL_TRACER.overflow(0, 5, "spill", 64, dur=20)
    NULL_TRACER.sched(0, 5, "preempt", 0)
    NULL_TRACER.coherence(0, 5, "coh_request", 64)
    NULL_TRACER.finalize([100])


def test_event_tracer_records_in_emission_order():
    tracer = EventTracer()
    tracer.tx_begin(0, 0, 10, "FlexTM", 1)
    tracer.conflict(0, 20, 1, "W-W", 128)
    tracer.tx_commit(0, 0, 30)
    kinds = [event.kind for event in tracer.events]
    assert kinds == ["tx_begin", "conflict_detected", "tx_commit"]
    cycles = [event.cycle for event in tracer.events]
    assert cycles == sorted(cycles)


def test_tx_begin_carries_system_and_incarnation():
    tracer = EventTracer()
    tracer.tx_begin(2, 7, 100, "TL2", 3)
    event = tracer.events[0]
    assert event.proc == 2 and event.thread == 7
    assert event.data == {"system": "TL2", "incarnation": 3}


def test_abort_event_attributes_cause_and_wounder():
    tracer = EventTracer()
    tracer.tx_abort(1, 4, 500, "self-abort by conflict manager", by=3)
    event = tracer.events[0]
    assert event.kind == "tx_abort"
    assert event.cause == "self-abort by conflict manager"
    assert event.data["by"] == 3


def test_memory_access_sampling():
    tracer = EventTracer(sample_memory=4)
    for index in range(16):
        tracer.tx_access(0, 0, index, "read", 64 * index)
    assert len(tracer.by_kind("tx_read")) == 4


def test_sample_memory_one_records_everything():
    tracer = EventTracer(sample_memory=1)
    for index in range(5):
        tracer.tx_access(0, 0, index, "write", 64)
    assert len(tracer.by_kind("tx_write")) == 5


def test_sample_memory_validation():
    with pytest.raises(ValueError):
        EventTracer(sample_memory=0)


def test_coherence_gating():
    tracer = EventTracer(trace_coherence=False)
    tracer.coherence(0, 10, "coh_request", 64, detail="GETS->S")
    assert len(tracer) == 0
    tracer2 = EventTracer(trace_coherence=True)
    tracer2.coherence(0, 10, "coh_request", 64, detail="GETS->S")
    assert tracer2.events[0].cause == "GETS->S"


def test_max_events_counts_dropped():
    tracer = EventTracer(max_events=2)
    for cycle in range(5):
        tracer.tx_commit(0, 0, cycle)
    assert len(tracer) == 2
    assert tracer.dropped == 3


def test_finalize_stores_processor_clocks():
    tracer = EventTracer()
    tracer.finalize([100, 200, 0])
    assert tracer.proc_cycles == [100, 200, 0]


def test_per_processor_grouping():
    tracer = EventTracer()
    tracer.tx_commit(0, 0, 5)
    tracer.tx_commit(1, 1, 6)
    tracer.tx_commit(0, 2, 7)
    grouped = tracer.per_processor()
    assert [event.cycle for event in grouped[0]] == [5, 7]
    assert [event.cycle for event in grouped[1]] == [6]


def test_event_to_dict_drops_defaults():
    tracer = EventTracer()
    tracer.tx_commit(3, 1, 42)
    payload = tracer.events[0].to_dict()
    assert payload == {"kind": "tx_commit", "cycle": 42, "proc": 3, "thread": 1}


def test_cst_labels_are_cst_and_wound_kinds():
    # Conflict events and FlexTM wound kinds label the requestor's CST
    # through CST_LABELS; each label must be a traced kind and a wound
    # kind.
    def label(access, response):
        return CST_LABELS.get(REQUESTER_CST.get((access, response)))

    assert label(AccessKind.TLOAD, ResponseKind.THREATENED) == "R-W"
    assert label(AccessKind.TSTORE, ResponseKind.THREATENED) == "W-W"
    assert label(AccessKind.TSTORE, ResponseKind.EXPOSED_READ) == "W-R"
    assert label(AccessKind.TLOAD, ResponseKind.EXPOSED_READ) is None
    assert label(AccessKind.TLOAD, ResponseKind.SHARED) is None
    assert set(REQUESTER_CST.values()) <= set(CST_LABELS)
    for kind in CST_LABELS.values():
        assert kind in CST_KINDS
        assert kind in WOUND_KIND_REGISTRY


def test_subclass_inherits_noop_interface():
    class Probe(NullTracer):
        pass

    probe = Probe()
    assert probe.enabled is False


def test_tee_collapses_to_the_null_or_single_tracer():
    tracer = EventTracer()
    assert tee() is NULL_TRACER
    assert tee(None, NULL_TRACER) is NULL_TRACER
    assert tee(None, tracer) is tracer


class _Custom(Tracer):
    """An enabled tracer without an event log."""

    enabled = True


def test_tee_attaches_a_hub_to_the_log():
    tracer, hub = EventTracer(max_events=1), MetricsHub()
    log = tee(tracer, hub)
    # No wrapper: the emit sites call the tracer's own methods.
    assert log is tracer
    log.tx_begin(0, 0, 5, "FlexTM", 1)
    log.tx_commit(0, 0, 10)
    log.finalize([10])
    # The hub folds every record; the trace keeps what its settings keep.
    assert hub.counters == {"tx.begins": 1, "tx.commits": 1}
    assert hub.proc_cycles == [10]
    assert [event.kind for event in tracer.events] == ["tx_begin"]
    assert tracer.dropped == 1
    # Armed alone, a hub folds a private log that keeps nothing.
    alone = MetricsHub()
    private = tee(None, alone)
    assert isinstance(private, EventTracer) and private.max_events == 0
    private.tx_commit(0, 0, 3)
    private.flush()
    assert alone.counters == {"tx.commits": 1} and len(private) == 0
    with pytest.raises(ValueError):
        tee(EventTracer(), EventTracer())
    with pytest.raises(TypeError):
        tee(_Custom(), MetricsHub())
