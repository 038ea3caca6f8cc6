"""``FlexTMMachine.attach``: one call arms every opt-in layer.

Each layer that holds a copy of the tracer, the fault-injection engine
or the degradation controller must hold exactly the attached object,
and a later ``attach`` with fewer keywords must turn the rest off.
"""

import inspect

import pytest

from repro.adversary.probes import OpacityProbe
from repro.analysis.rules_hooks import OPTIONAL_HOOKS
from repro.chaos import ChaosEngine, ChaosSpec, InvariantChecker
from repro.core.machine import FlexTMMachine
from repro.obs.metrics import MetricsHub
from repro.obs.tracer import NULL_TRACER, EventTracer
from repro.params import small_test_params
from repro.resilience import DegradeSpec, ResilienceController
from repro.stm.htmbe import HtmBestEffortRuntime

HELD = ("tracer", "chaos", "resilience")


@pytest.fixture
def machine():
    return FlexTMMachine(small_test_params(4))


def _holders(machine):
    """Every object below the machine that keeps its own hook copy."""
    yield machine.directory
    for proc in machine.processors:
        yield from (proc, proc.l1, proc.alerts, proc.ot)


def _held(machine):
    """(holder, field, value) for every hook field a holder defines."""
    for holder in _holders(machine):
        for field in HELD:
            if hasattr(holder, field):
                yield holder, field, getattr(holder, field)


def test_every_holder_gets_the_attached_objects(machine):
    tracer = EventTracer()
    chaos = ChaosEngine(ChaosSpec(seed=1))
    resilience = ResilienceController(DegradeSpec())
    machine.attach(tracer=tracer, chaos=chaos, resilience=resilience)
    attached = {"tracer": tracer, "chaos": chaos, "resilience": resilience}
    seen = set()
    for holder, field, value in _held(machine):
        assert value is attached[field], (type(holder).__name__, field)
        seen.add(field)
    assert seen == set(HELD)
    assert machine.tracer is tracer
    assert machine.chaos is chaos
    assert machine.resilience is resilience


def test_attach_with_nothing_turns_every_layer_off(machine):
    machine.attach(
        tracer=EventTracer(),
        chaos=ChaosEngine(ChaosSpec(seed=1)),
        invariants=InvariantChecker(),
        resilience=ResilienceController(DegradeSpec()),
        probes=OpacityProbe(),
    )
    machine.attach()
    off = {"tracer": NULL_TRACER, "chaos": None, "resilience": None}
    for holder, field, value in _held(machine):
        assert value is off[field], (type(holder).__name__, field)
    assert machine.tracer is NULL_TRACER
    for hook in OPTIONAL_HOOKS:
        assert getattr(machine, hook) is None


def test_a_hub_alone_gets_a_private_log_that_feeds_it(machine):
    hub = MetricsHub()
    machine.attach(metrics=hub)
    tracer = machine.tracer
    assert isinstance(tracer, EventTracer)
    assert tracer.max_events == 0
    assert tracer._hub is hub
    assert all(proc.tracer is tracer for proc in machine.processors)


def test_a_hub_beside_a_tracer_folds_that_tracer(machine):
    tracer, hub = EventTracer(), MetricsHub()
    machine.attach(tracer=tracer, metrics=hub)
    assert machine.tracer is tracer
    assert tracer._hub is hub


def test_the_engine_mirrors_into_the_machine_stats(machine):
    chaos = ChaosEngine(ChaosSpec(seed=1))
    assert chaos.stats is None
    machine.attach(chaos=chaos)
    assert chaos.stats is machine.stats


def test_the_controller_and_probe_learn_the_machine(machine):
    resilience, probes = ResilienceController(DegradeSpec()), OpacityProbe()
    machine.attach(resilience=resilience, probes=probes)
    assert resilience.machine is machine
    assert probes.machine is machine
    assert machine.probes is probes


def test_the_htm_fallback_survives_a_later_attach(machine):
    runtime = HtmBestEffortRuntime(machine)
    assert machine.htm_fallback is runtime.policy
    machine.attach(invariants=InvariantChecker())
    machine.attach()
    assert machine.htm_fallback is runtime.policy


def test_every_optional_hook_is_an_attach_keyword():
    keywords = inspect.signature(FlexTMMachine.attach).parameters
    for hook in OPTIONAL_HOOKS:
        assert keywords[hook].kind is inspect.Parameter.KEYWORD_ONLY
