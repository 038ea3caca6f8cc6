"""Dispatch order: the scheduler's heap agrees with a linear scan.

The scheduler serves its least-advanced-clock policy from a lazily
re-keyed ``(clock, proc)`` heap, refreshed inline by the pick in
``Scheduler.run`` and by ``Scheduler.next_processor``, the fallback a
director defers to.  The reference definition of the policy is a scan
over the running processors (least clock, lowest processor id on ties,
skipping finished slots and clocks at or past the limit).

An undirected scenario runs twice: once as is, and once under a
director that picks by the scan and pins nothing.  Both runs must give
the same result and the same op stream (``tests/op_digest.tapped``),
which holds only if the inline pick chose the scan's processor at every
step.  A scripted scenario wraps its director's ``pick`` and checks
``next_processor`` against the scan before every step, mid-script too.
The scenarios cover the paths that move clocks or change which
processors run outside the ordinary step: preemption churn, processor
subsets, retirement, chaos context-switch storms and scripted
directives.
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
from tests.op_digest import tapped

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


class ReferenceDirector:
    """Picks by :func:`reference_pick` and pins nothing."""

    def __init__(self):
        self.checks = 0

    def pick(self, scheduler, cycle_limit):
        self.checks += 1
        return reference_pick(scheduler, cycle_limit)

    def pins(self, thread):
        return False


def checked(director):
    """Wrap a script director's ``pick``: before every step, the heap's
    ``next_processor`` must agree with the scan."""
    inner = director.pick
    director.checks = 0

    def pick(scheduler, cycle_limit):
        proc = inner(scheduler, cycle_limit)
        expected = reference_pick(scheduler, cycle_limit)
        picked = scheduler.next_processor(cycle_limit)
        assert picked == expected, (picked, expected, director.checks)
        director.checks += 1
        return proc

    director.pick = pick
    return director


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


def _run(num_processors, counts, chaos=None, director=None, **scheduler_kwargs):
    """One run, with its op stream digested; returns (scheduler, result,
    op-stream digest)."""
    with tapped() as recorder:
        machine = FlexTMMachine(small_test_params(num_processors))
        if chaos is not None:
            machine.attach(chaos=ChaosEngine(chaos))
        runtime = FlexTMRuntime(machine, mode=ConflictMode.EAGER)
        line = machine.params.line_bytes
        shared = [machine.allocate(line, line_aligned=True) for _ in range(6)]
        threads = [
            TxThread(thread_id, runtime, _items(thread_id, shared, count))
            for thread_id, count in enumerate(counts)
        ]
        scheduler = Scheduler(machine, threads, director=director, **scheduler_kwargs)
        result = scheduler.run(cycle_limit=CYCLE_LIMIT)
    return scheduler, result, recorder.sha.hexdigest()


def _check(num_processors, counts, script=None, chaos=None, **kwargs):
    """Run against the reference, then check the reference changed
    nothing; returns the checked run's (scheduler, result, director)."""
    if script is None:
        reference = ReferenceDirector()
        _, expected, expected_ops = _run(num_processors, counts, chaos, reference, **kwargs)
        scheduler, result, ops = _run(num_processors, counts, chaos, None, **kwargs)
        director = None
        checks = reference.checks
    else:
        director = checked(ScheduleDirector(script))
        scheduler, result, ops = _run(num_processors, counts, chaos, director, **kwargs)
        plain_director = ScheduleDirector(script)
        _, expected, expected_ops = _run(num_processors, counts, chaos, plain_director,
                                         **kwargs)
        assert director.log == plain_director.log
        checks = director.checks
    assert result == expected
    assert ops == expected_ops
    assert checks > 100
    assert result.commits > 0
    return scheduler, result, director


def test_sixteen_threads_on_sixteen_cores():
    _check(16, [None] * 16)


def test_more_threads_than_cores_with_a_quantum():
    _, result, _ = _check(4, [None] * 10, quantum=300)
    assert result.stats["ctxsw.switches"] > 20


def test_processor_subset():
    scheduler, result, _ = _check(4, [None] * 5, processors=[1, 2], quantum=500)
    assert result.stats["ctxsw.switches"] > 0
    assert all(proc in (1, 2) for proc in scheduler._running)


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
