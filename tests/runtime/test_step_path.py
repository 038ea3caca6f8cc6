"""The scheduler's step path.

The step loop in ``Scheduler.run`` executes the op a thread yields
through one table lookup (op kind -> bound machine method, built at the
start of each run) and bumps the clock directly.  Every executed op of the
scenarios below is pinned by the op-digest oracle (``tests/op_digest.py``,
checked by ``tests/test_op_digest.py``).  These tests check, from the
counts the oracle's taps keep, that each scenario still exercises what
it is there for, so a repin cannot leave it vacuous.  The edge cases
pin the step's own rules.
"""

import pytest

from repro.core.machine import FlexTMMachine, MemoryOpResult
from repro.errors import SchedulerError
from repro.harness.runner import SYSTEMS
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from tests.op_digest import (
    MACHINE_OPS,
    pinned_cell,
    run_cell,
    shared_counter_threads,
    tally,
    tapped,
)

CYCLE_LIMIT = 15_000


def _committed(name):
    """The cell, checked to have committed something."""
    cell = run_cell(name)
    assert cell.result.commits > 0, name
    return cell


# ---------------------------------------------------------- pinned scenarios


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_op_matches_the_reference(system):
    """The reference is the pinned digest of every op of the run."""
    name = f"HashTable/{system}/eager/none/dedicated"
    pinned_cell(name)
    cell = _committed(name)
    assert sum(tally(cell, "op").values()) > 200
    assert cell.counts["yielded", "work"] > 0


def test_every_machine_op_kind_is_covered():
    """Across the backends the pinned runs execute every machine op kind
    and yield ``work``."""
    ops, yielded = set(), set()
    for system in sorted(SYSTEMS):
        cell = run_cell(f"HashTable/{system}/eager/none/dedicated")
        ops |= {name for name, in tally(cell, "op")}
        yielded |= {kind for kind, in tally(cell, "yielded")}
    assert ops == set(MACHINE_OPS)
    assert yielded >= set(MACHINE_OPS) | {"work"}


def test_signature_faults():
    result = _committed("HashTable/FlexTM/eager/signature/dedicated").result
    assert result.stats["chaos.signature.false_positive.wsig"] > 0


def test_fault_storm_with_spurious_alerts_and_forced_preempts():
    result = _committed("HashTable/FlexTM/eager/storm/dedicated").result
    assert result.stats["chaos.aou.spurious"] > 0
    assert result.stats["chaos.sched.preempt"] > 0


def test_quantum_preemption():
    result = _committed("HashTable/FlexTM/eager/none/4t-on-2p").result
    assert result.stats["ctxsw.switches"] > 10


def test_degradation_ladder_pins_the_irrevocable_holder():
    result = _committed("named/degrade-ladder").result
    assert result.escalations["commits_irrevocable"] >= 1
    assert result.stats["ctxsw.switches"] > 0


def test_yield_on_abort_with_waiting_threads():
    cell = _committed("named/yield-on-abort")
    assert cell.counts["yielded", "yield_cpu"] > 0
    assert cell.result.stats["ctxsw.yields"] > 0


def test_schedule_director():
    cell = _committed("named/director")
    for outcome in ("parked", "placed", "wounded"):
        assert cell.counts["directive", outcome] > 0, outcome


def test_a_class_wrapper_installed_before_run_sees_every_machine_call():
    """The op table is bound in ``run``, so a wrapper put on the machine's
    class after the scheduler is built, but before it runs, sees the same
    calls as one put there first (the oracle's taps and the per-layer
    benchmark rely on this)."""

    def run(build_before_tapping):
        def build():
            machine = FlexTMMachine(small_test_params(4))
            threads = shared_counter_threads(machine, 4, items_per_thread=20)
            return Scheduler(machine, threads)

        scheduler = build() if build_before_tapping else None
        with tapped() as recorder:
            result = (scheduler or build()).run(cycle_limit=CYCLE_LIMIT)
        assert result.commits == 80
        return recorder

    late, early = run(True), run(False)
    assert late.sha.hexdigest() == early.sha.hexdigest()
    # The threads' op generators are made when the scheduler is built,
    # so only taps put there first count their yields.
    assert late.counts == {key: n for key, n in early.counts.items() if key[0] != "yielded"}
    assert {key[1] for key in late.counts if key[0] == "op"} >= {
        "tload", "tstore", "cas_commit", "store", "aload"}


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
