"""Dispatch order: the scheduler's heap agrees with a linear scan.

The scheduler serves its least-advanced-clock policy from a lazily
re-keyed ``(clock, proc)`` heap.  These tests run it beside the
reference definition of the policy, a scan over the running processors
(least clock, lowest processor id on ties, skipping finished slots and
clocks at or past the limit), and assert the two agree before every
step.  They cover the paths that move clocks or change which processors
run outside the ordinary step: preemption churn, processor subsets,
retirement, chaos context-switch storms and scripted directives.
"""

from repro.adversary.director import ScheduleDirector
from repro.adversary.script import ScheduleScript, Step
from repro.chaos.engine import ChaosEngine, ChaosSpec
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.harness.chaos import FAULT_PROFILES
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem

CYCLE_LIMIT = 40_000


def reference_pick(scheduler, cycle_limit):
    """The policy by definition: a scan of every running processor."""
    best, best_now = None, None
    for proc, slot in scheduler._running.items():
        if slot.done:
            continue
        now = scheduler.machine.processors[proc].clock.now
        if now >= cycle_limit:
            continue
        if best_now is None or (now, proc) < (best_now, best):
            best, best_now = proc, now
    return best


class OracleScheduler(Scheduler):
    """A Scheduler that checks every pick against :func:`reference_pick`."""

    checks = 0

    def next_processor(self, cycle_limit):
        expected = reference_pick(self, cycle_limit)
        picked = super().next_processor(cycle_limit)
        assert picked == expected, (picked, expected, self.checks)
        self.checks += 1
        return picked

    def _step(self, proc, cycle_limit):
        # Also check mid-script, when a director chose ``proc`` itself.
        picked = self.next_processor(cycle_limit)
        if self.director is None:
            assert picked == proc
        super()._step(proc, cycle_limit)


def _items(thread_id, shared, count):
    """``count`` read-modify-write transactions (None = unbounded)."""

    def body(k):
        def txn(ctx):
            address = shared[(thread_id + k) % len(shared)]
            value = yield from ctx.read(address)
            yield from ctx.work((thread_id * 7 + k) % 13 + 1)
            yield from ctx.write(address, value + 1)

        return txn

    k = 0
    while count is None or k < count:
        yield WorkItem(body(k))
        k += 1


def _run(scheduler_cls, num_processors, counts, chaos=None, director=None,
         **scheduler_kwargs):
    machine = FlexTMMachine(small_test_params(num_processors))
    if chaos is not None:
        machine.set_chaos(ChaosEngine(chaos, stats=machine.stats))
    runtime = FlexTMRuntime(machine, mode=ConflictMode.EAGER)
    line = machine.params.line_bytes
    shared = [machine.allocate(line, line_aligned=True) for _ in range(6)]
    threads = [
        TxThread(thread_id, runtime, _items(thread_id, shared, count))
        for thread_id, count in enumerate(counts)
    ]
    scheduler = scheduler_cls(machine, threads, director=director,
                              **scheduler_kwargs)
    return scheduler, scheduler.run(cycle_limit=CYCLE_LIMIT)


def _check(num_processors, counts, script=None, chaos=None, **kwargs):
    """Run under the oracle, then check the oracle changed nothing."""

    def director():
        return None if script is None else ScheduleDirector(script)

    oracle_director = director()
    oracle, result = _run(OracleScheduler, num_processors, counts, chaos,
                          oracle_director, **kwargs)
    plain_director = director()
    _, plain = _run(Scheduler, num_processors, counts, chaos,
                    plain_director, **kwargs)
    assert result == plain
    if script is not None:
        assert oracle_director.log == plain_director.log
    assert oracle.checks > 100
    assert result.commits > 0
    return oracle, result, oracle_director


def test_sixteen_threads_on_sixteen_cores():
    _check(16, [None] * 16)


def test_more_threads_than_cores_with_a_quantum():
    _, result, _ = _check(4, [None] * 10, quantum=300)
    assert result.stats["ctxsw.switches"] > 20


def test_processor_subset():
    oracle, result, _ = _check(4, [None] * 5, processors=[1, 2], quantum=500)
    assert result.stats["ctxsw.switches"] > 0
    assert all(proc in (1, 2) for proc in oracle._running)


def test_threads_retiring_mid_run():
    # Thread i commits i + 1 items; the later ones keep running past
    # every earlier retirement, and a ready queue refills freed cores.
    _, result, _ = _check(4, [i + 1 for i in range(6)] + [None, None], quantum=2_000)
    assert [row["commits"] for row in result.per_thread][:6] == [1, 2, 3, 4, 5, 6]


def test_chaos_forced_preempt_storm():
    chaos = ChaosSpec(seed=11, **FAULT_PROFILES["sched"])
    _, result, _ = _check(8, [None] * 8, chaos=chaos)
    assert result.stats["ctxsw.switches"] > 0


def test_director_preempt_place_stall():
    script = ScheduleScript(name="dispatch-order", steps=(
        Step.run(0, until="ops", count=4),
        Step.stall(1, 2_000),
        Step.preempt(2),
        Step.run(3, until="commit"),
        Step.place(2, processor=2),
        Step.preempt(0),
        Step.stall(3, 700),
        Step.run(1, until="ops", count=3),
        Step.run(2, until="commit"),
        Step.place(0),
    ))
    _, _, director = _check(4, [None] * 4, script=script)
    outcomes = [entry["outcome"] for entry in director.log]
    assert outcomes.count("stalled") == 2
    assert outcomes.count("parked") == 2
    assert outcomes.count("placed") == 2
    assert outcomes[-1] == "released"
