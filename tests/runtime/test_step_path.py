"""The scheduler's step path against the definition it replaced.

``Scheduler._step`` executes the op a thread yields through one table
lookup (``Scheduler._ops``, op kind -> bound machine method, built by
``run``) and bumps the clock directly.  This module keeps the earlier
``_step`` and its ``_execute`` ``if/elif`` chain as the reference.  Each
equivalence test runs one short experiment twice, once on the reference
and once on the shipped step, and records every executed op: the
processor and thread, the op itself, what it returned (value, cycles,
conflicts, NACK and CAS outcome) and the processor's clock afterwards.
The two records and the two results must be identical.
"""

from typing import NamedTuple, Optional

import pytest

from repro.adversary.director import ScheduleDirector
from repro.adversary.script import ScheduleScript, Step
from repro.chaos.engine import ChaosSpec
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine, MemoryOpResult
from repro.errors import SchedulerError
from repro.harness.chaos import profile_spec
from repro.harness.runner import SYSTEMS, ExperimentConfig, run_experiment
from repro.obs.tracer import EventTracer
from repro.params import small_test_params
from repro.resilience import DegradeSpec
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import SPURIOUS_ALERT_CYCLES, Scheduler
from repro.runtime.txthread import TxThread, WorkItem

CYCLE_LIMIT = 15_000

MACHINE_OPS = ("tload", "tstore", "load", "store", "cas", "cas_commit", "aload")


# ------------------------------------------------------------- the reference


def reference_step(self, proc, cycle_limit):
    """``Scheduler._step`` before the op table."""
    slot = self._running[proc]
    clock = self.machine.processors[proc].clock
    chaos = self.machine.chaos
    resilience = self.machine.resilience
    pinned = resilience is not None and resilience.pinned(slot.thread)
    if not pinned and self.director is not None:
        pinned = self.director.pins(slot.thread)
    if chaos is not None and chaos.enabled:
        if chaos.spurious_alert():
            self.machine.processors[proc].alerts.raise_alert(-1, "spurious")
            clock.advance(SPURIOUS_ALERT_CYCLES)
        if chaos.forced_preempt() and not pinned:
            self._preempt(proc, slot)
            return
    if (
        self.quantum is not None
        and self._ready
        and not pinned
        and clock.now - slot.slice_start >= self.quantum
    ):
        self._preempt(proc, slot)
        return
    thread = slot.thread
    if (
        slot.pending_exc is None
        and thread.in_transaction
        and thread.backend.check_aborted(thread)
    ):
        slot.pending_exc = self._abort_exception(thread, "status word changed")
    try:
        if slot.pending_exc is not None:
            exc, slot.pending_exc = slot.pending_exc, None
            op = slot.gen.throw(exc)
        else:
            op = slot.gen.send(slot.pending_value)
    except StopIteration:
        self._retire(proc, slot)
        return
    slot.pending_value = reference_execute(self, proc, slot, op)


def reference_execute(self, proc, slot, op):
    """``Scheduler._execute``: the ``if/elif`` chain on op strings."""
    machine = self.machine
    kind = op[0]
    clock = machine.processors[proc].clock
    if kind == "work":
        clock.advance(max(1, op[1]))
        return None
    if kind == "tload":
        result = machine.tload(proc, op[1])
    elif kind == "tstore":
        result = machine.tstore(proc, op[1], op[2])
    elif kind == "load":
        result = machine.load(proc, op[1])
    elif kind == "store":
        result = machine.store(proc, op[1], op[2])
    elif kind == "cas":
        result = machine.cas(proc, op[1], op[2], op[3])
    elif kind == "cas_commit":
        result = machine.cas_commit(proc)
    elif kind == "aload":
        result = machine.aload(proc, op[1])
    elif kind == "yield_cpu":
        self._voluntary_yield(proc, slot)
        return None
    else:
        raise SchedulerError(f"unknown op {op!r}")
    clock.advance(max(1, result.cycles))
    return result


# ------------------------------------------------------------- the recorder


class Executed(NamedTuple):
    """One executed op and the processor's clock right after it."""

    proc: int
    thread: int
    op: tuple
    #: ``(method, proc, *args)`` of each machine method the step called.
    calls: tuple
    #: (value, cycles, conflicts, nacked, success); None for work/yield.
    outcome: Optional[tuple]
    clock: int


class _Tap:
    """Stands in for a thread's generator and remembers the op it yields."""

    def __init__(self, gen):
        self.gen = gen
        self.op = None

    def send(self, value):
        self.op = self.gen.send(value)
        return self.op

    def throw(self, exc):
        self.op = self.gen.throw(exc)
        return self.op


def _outcome(value) -> Optional[tuple]:
    if value is None:
        return None
    assert isinstance(value, MemoryOpResult)
    return (value.value, value.cycles, tuple(value.conflicts), value.nacked, value.success)


def _calling(name, method, calls):
    """Wrap a machine method so each call appends ``(name, proc, *args)``."""

    def wrapper(self, proc_id, *args):
        calls.append((name, proc_id, *args))
        return method(self, proc_id, *args)

    return wrapper


def _recording(step, log, calls):
    """Wrap a ``_step`` so each executed op appends an :class:`Executed`."""

    def recorded(self, proc, cycle_limit):
        slot = self._running[proc]
        if not isinstance(slot.gen, _Tap):
            slot.gen = _Tap(slot.gen)
        tap = slot.gen
        tap.op = None
        first_call = len(calls)
        step(self, proc, cycle_limit)
        if tap.op is not None:
            log.append(Executed(
                proc, slot.thread.thread_id, tap.op, tuple(calls[first_call:]),
                _outcome(slot.pending_value), self.machine.processors[proc].clock.now,
            ))

    return recorded


def _run(monkeypatch, execute, reference):
    """One call of ``execute``: (executed-op log, its result)."""
    log, calls = [], []
    step = reference_step if reference else Scheduler._step
    with monkeypatch.context() as patch:
        for name in MACHINE_OPS:
            patch.setattr(FlexTMMachine, name, _calling(name, getattr(FlexTMMachine, name), calls))
        patch.setattr(Scheduler, "_step", _recording(step, log, calls))
        result = execute()
    return log, result


def _check(monkeypatch, execute):
    expected_log, expected = _run(monkeypatch, execute, reference=True)
    log, result = _run(monkeypatch, execute, reference=False)
    assert len(log) == len(expected_log)
    for index, (got, want) in enumerate(zip(log, expected_log)):
        assert got == want, (index, got, want)
    assert result == expected
    assert result.commits > 0
    return log, result


def _experiment(system, **kwargs):
    kwargs.setdefault("threads", 4)
    kwargs.setdefault("cycle_limit", CYCLE_LIMIT)
    config = ExperimentConfig(
        workload="HashTable", system=system, params=small_test_params(4), **kwargs,
    )
    return lambda: run_experiment(config)


# ------------------------------------------------------------ equivalence


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_op_matches_the_reference(monkeypatch, system):
    log, _ = _check(monkeypatch, _experiment(system))
    kinds = {entry.op[0] for entry in log}
    assert "work" in kinds
    assert kinds & set(MACHINE_OPS)
    assert len(log) > 200
    for entry in log:
        expected = ((entry.op[0], entry.proc, *entry.op[1:]),)
        assert entry.calls == (expected if entry.op[0] in MACHINE_OPS else ())


def test_every_machine_op_kind_is_covered(monkeypatch):
    """Across the backends, the records hold every op kind but yield_cpu
    (covered by the edge-case tests below)."""
    kinds = set()
    for system in sorted(SYSTEMS):
        log, _ = _run(monkeypatch, _experiment(system), reference=False)
        kinds |= {entry.op[0] for entry in log}
    assert kinds >= set(MACHINE_OPS) | {"work"}


def test_signature_faults(monkeypatch):
    experiment = _experiment("FlexTM", chaos=profile_spec("signature", 7, "FlexTM"))
    _, result = _check(monkeypatch, experiment)
    assert result.stats["chaos.signature.false_positive.wsig"] > 0


def test_fault_storm_with_spurious_alerts_and_forced_preempts(monkeypatch):
    experiment = _experiment("FlexTM", chaos=profile_spec("storm", 3, "FlexTM"))
    _, result = _check(monkeypatch, experiment)
    assert result.stats["chaos.aou.spurious"] > 0
    assert result.stats["chaos.sched.preempt"] > 0


def test_quantum_preemption(monkeypatch):
    experiment = _experiment("FlexTM", threads=6, processors=2, quantum=400)
    _, result = _check(monkeypatch, experiment)
    assert result.stats["ctxsw.switches"] > 10


def test_degradation_ladder_pins_the_irrevocable_holder(monkeypatch):
    """Resilience, invariants and a tracer armed together, so every step
    runs with the per-step observer block on, and the serial-irrevocable
    holder is pinned against chaos preemption."""
    experiment = _experiment(
        "FlexTM", cycle_limit=60_000, seed=9, mode=ConflictMode.LAZY,
        chaos=ChaosSpec(seed=11, sched_preempt=0.002, sig_false_positive=0.05),
        invariants=True,
        degrade=DegradeSpec(boost_after=1, eager_after=1, irrevocable_after=2),
        tracer=EventTracer(trace_coherence=False),
    )
    _, result = _check(monkeypatch, experiment)
    assert result.escalations["commits_irrevocable"] >= 1
    assert result.stats["ctxsw.switches"] > 0


def test_yield_on_abort_with_waiting_threads(monkeypatch):
    def execute():
        machine = FlexTMMachine(small_test_params(2))
        threads = _shared_counter_threads(machine, 4, yield_on_abort=True)
        return Scheduler(machine, threads).run(cycle_limit=CYCLE_LIMIT)

    log, result = _check(monkeypatch, execute)
    assert any(entry.op[0] == "yield_cpu" for entry in log)
    assert result.stats["ctxsw.yields"] > 0


def _shared_counter_threads(machine, count, items_per_thread=None, yield_on_abort=False):
    runtime = FlexTMRuntime(machine)
    line = machine.params.line_bytes
    shared = [machine.allocate(line, line_aligned=True) for _ in range(4)]

    def items(thread_id):
        k = 0
        while items_per_thread is None or k < items_per_thread:
            def txn(ctx, k=k):
                address = shared[(thread_id + k) % len(shared)]
                value = yield from ctx.read(address)
                yield from ctx.work(k % 7 + 1)
                yield from ctx.write(address, value + 1)

            yield WorkItem(txn)
            k += 1

    return [
        TxThread(thread_id, runtime, items(thread_id), yield_on_abort=yield_on_abort)
        for thread_id in range(count)
    ]


def test_schedule_director(monkeypatch):
    # Five threads on four cores with a short quantum: the pinned thread
    # is the one a quantum expiry may not preempt.
    script = ScheduleScript(name="step-path", steps=(
        Step.pin(0),
        Step.run(0, until="ops", count=400),
        Step.stall(1, 1_500),
        Step.preempt(2),
        Step.stall(3, 700),
        Step.place(2),
        Step.run(3, until="commit"),
        Step.run(1, until="begin"),
        Step.run(1, until="ops", count=4),
        Step.wound(1),
        Step.run(1, until="abort"),
        Step.unpin(0),
    ))
    logs = []

    def execute():
        machine = FlexTMMachine(small_test_params(4))
        threads = _shared_counter_threads(machine, 5)
        director = ScheduleDirector(script)
        logs.append(director.log)
        scheduler = Scheduler(machine, threads, director=director, quantum=300)
        return scheduler.run(cycle_limit=CYCLE_LIMIT)

    _check(monkeypatch, execute)
    assert logs[0] == logs[1]
    outcomes = [entry["outcome"] for entry in logs[0]]
    assert "parked" in outcomes and "placed" in outcomes and "wounded" in outcomes


# ------------------------------------------------------------- edge cases


def _raw_run(bodies_of, num_processors=1):
    """One thread per body in ``bodies_of(machine)``, each running its
    body as one non-transactional item."""
    machine = FlexTMMachine(small_test_params(num_processors))
    runtime = FlexTMRuntime(machine)
    threads = [
        TxThread(thread_id, runtime, iter([WorkItem(body, transactional=False)]))
        for thread_id, body in enumerate(bodies_of(machine))
    ]
    return Scheduler(machine, threads).run(cycle_limit=CYCLE_LIMIT)


def _timing(ops):
    """``bodies_of`` for one thread issuing ``ops``; appends each op's
    (clock advance, returned value) to the list it returns."""
    deltas = []

    def bodies_of(machine):
        clock = machine.processors[0].clock

        def body(ctx):
            for op in ops:
                before = clock.now
                value = yield op
                deltas.append((clock.now - before, value))

        return [body]

    return bodies_of, deltas


def test_work_advances_at_least_one_cycle():
    bodies_of, deltas = _timing([("work", 0), ("work", -7), ("work", 1), ("work", 5)])
    _raw_run(bodies_of)
    assert deltas == [(1, None), (1, None), (1, None), (5, None)]


def test_a_zero_cycle_machine_op_advances_one_cycle(monkeypatch):
    monkeypatch.setattr(FlexTMMachine, "load", lambda self, proc_id, address: MemoryOpResult())
    bodies_of, deltas = _timing([("load", 64)])
    _raw_run(bodies_of)
    [(advance, result)] = deltas
    assert advance == 1 and result.cycles == 0


def test_yield_cpu_with_an_empty_ready_queue_costs_one_cycle():
    bodies_of, deltas = _timing([("yield_cpu",)])
    result = _raw_run(bodies_of)
    assert deltas == [(1, None)]
    assert "ctxsw.yields" not in result.stats


def test_yield_cpu_with_a_waiting_thread_switches():
    order = []

    def first(ctx):
        order.append("first:before")
        yield ("yield_cpu",)
        order.append("first:after")
        yield ("work", 1)

    def second(ctx):
        order.append("second")
        yield ("work", 1)

    result = _raw_run(lambda machine: [first, second])
    assert order == ["first:before", "second", "first:after"]
    assert result.stats["ctxsw.yields"] == 1
    assert result.nontx_items == 2


def test_an_unknown_op_raises_naming_it():
    def body(ctx):
        yield ("frobnicate", 12)

    with pytest.raises(SchedulerError, match="frobnicate"):
        _raw_run(lambda machine: [body])


def test_a_class_wrapper_installed_before_run_sees_every_machine_call(monkeypatch):
    """The op table is bound in ``run``, so a wrapper put on the machine's
    class after the scheduler is built, but before it runs, is what every
    step calls (the per-layer benchmark relies on this)."""
    machine = FlexTMMachine(small_test_params(4))
    threads = _shared_counter_threads(machine, 4, items_per_thread=20)
    scheduler = Scheduler(machine, threads)
    calls, log = [], []
    for name in MACHINE_OPS:
        wrapped = _calling(name, getattr(FlexTMMachine, name), calls)
        monkeypatch.setattr(FlexTMMachine, name, wrapped)
    monkeypatch.setattr(Scheduler, "_step", _recording(Scheduler._step, log, calls))
    result = scheduler.run(cycle_limit=CYCLE_LIMIT)
    issued = [
        (entry.op[0], entry.proc, *entry.op[1:])
        for entry in log if entry.op[0] in MACHINE_OPS
    ]
    assert calls == issued
    assert {call[0] for call in calls} >= {"tload", "tstore", "cas_commit", "store", "aload"}
    assert result.commits == 80
