"""The livelock watchdog's escalation ladder."""

import types

import pytest

from repro.chaos import LivelockWatchdog, WatchdogSpec
from repro.core.descriptor import ConflictMode, TransactionDescriptor
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.harness.runner import SYSTEMS
from repro.params import small_test_params
from repro.runtime.contention import ConflictManager


class _Thread:
    def __init__(self):
        self.commits = 0


class _Scheduler:
    """The slice of the scheduler interface observe() consumes."""

    def __init__(self, machine, nthreads=2):
        self.machine = machine
        self.slots = [
            types.SimpleNamespace(thread=_Thread()) for _ in range(nthreads)
        ]


@pytest.fixture
def machine():
    return FlexTMMachine(small_test_params(4))


def _watchdog(machine, **spec_kw):
    spec = WatchdogSpec(window_cycles=1_000, **spec_kw)
    watchdog = LivelockWatchdog(spec)
    backend = types.SimpleNamespace(manager=ConflictManager(), machine=machine)
    watchdog.attach(machine, backend)
    return watchdog


def _active_descriptor(machine, thread_id, wounds=0):
    tsw = machine.allocate_words(1)
    machine.memory.write(tsw, TxStatus.ACTIVE)
    descriptor = TransactionDescriptor(thread_id=thread_id, tsw_address=tsw)
    descriptor.wounds_inflicted = wounds
    machine.register_descriptor(descriptor)
    return descriptor


def test_no_escalation_while_commits_flow(machine):
    watchdog = _watchdog(machine)
    scheduler = _Scheduler(machine)
    for step in range(5):
        scheduler.slots[0].thread.commits += 1
        machine.processors[0].clock.advance(5_000)
        watchdog.observe(scheduler)
    assert watchdog.escalations == 0
    assert watchdog.manager.boost == 1


def test_backoff_boost_then_forced_abort(machine):
    watchdog = _watchdog(machine, backoff_growth=2, max_boost=8, force_abort_after=2)
    scheduler = _Scheduler(machine)
    victim = _active_descriptor(machine, thread_id=0, wounds=3)
    bystander = _active_descriptor(machine, thread_id=1, wounds=1)
    clock = machine.processors[0].clock
    watchdog.observe(scheduler)  # primes the commit baseline
    # Levels 1 and 2: manager back-off boost, no forced aborts.
    clock.advance(1_000)
    watchdog.observe(scheduler)
    assert (watchdog.escalations, watchdog.manager.boost) == (1, 2)
    clock.advance(2_000)  # window widens with the level
    watchdog.observe(scheduler)
    assert (watchdog.escalations, watchdog.manager.boost) == (2, 4)
    assert watchdog.forced_aborts == 0
    # Level 3: the ladder runs out of patience and wounds the most
    # prolific ACTIVE wounder.
    clock.advance(3_000)
    watchdog.observe(scheduler)
    assert watchdog.forced_aborts == 1
    assert machine.read_status(victim) is TxStatus.ABORTED
    assert victim.wound_kind == "watchdog"
    assert victim.wounded_by == -1
    assert machine.read_status(bystander) is TxStatus.ACTIVE
    assert machine.stats.counter("watchdog.forced_aborts").value == 1


def test_forced_abort_tiebreak_prefers_lowest_thread(machine):
    watchdog = _watchdog(machine, force_abort_after=0)
    scheduler = _Scheduler(machine)
    low = _active_descriptor(machine, thread_id=0, wounds=2)
    high = _active_descriptor(machine, thread_id=3, wounds=2)
    watchdog.observe(scheduler)
    machine.processors[0].clock.advance(1_000)
    watchdog.observe(scheduler)
    assert machine.read_status(low) is TxStatus.ABORTED
    assert machine.read_status(high) is TxStatus.ACTIVE


def test_commit_deescalates_and_resets_boost(machine):
    watchdog = _watchdog(machine)
    scheduler = _Scheduler(machine)
    clock = machine.processors[0].clock
    watchdog.observe(scheduler)
    clock.advance(1_000)
    watchdog.observe(scheduler)
    assert watchdog.manager.boost == 2
    scheduler.slots[1].thread.commits += 1
    watchdog.observe(scheduler)
    assert watchdog.manager.boost == 1
    assert watchdog.recoveries == 1
    assert machine.stats.counter("watchdog.recoveries").value == 1
    # The ladder restarts from level zero after recovery.
    clock.advance(1_000)
    watchdog.observe(scheduler)
    assert watchdog.manager.boost == 2


def test_boost_is_bounded(machine):
    watchdog = _watchdog(machine, max_boost=4, force_abort_after=99)
    scheduler = _Scheduler(machine)
    clock = machine.processors[0].clock
    watchdog.observe(scheduler)
    for level in range(1, 8):
        clock.advance(1_000 * level)
        watchdog.observe(scheduler)
    assert watchdog.manager.boost == 4


def test_forced_abort_skips_resolved_transactions(machine):
    watchdog = _watchdog(machine, force_abort_after=0)
    scheduler = _Scheduler(machine)
    done = _active_descriptor(machine, thread_id=0, wounds=5)
    machine.memory.write(done.tsw_address, TxStatus.COMMITTED)
    watchdog.observe(scheduler)
    machine.processors[0].clock.advance(1_000)
    watchdog.observe(scheduler)
    assert watchdog.forced_aborts == 0
    assert machine.read_status(done) is TxStatus.COMMITTED


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_attach_binds_the_backends_manager(machine, system):
    backend = SYSTEMS[system](machine, ConflictMode.EAGER)
    watchdog = LivelockWatchdog(WatchdogSpec())
    watchdog.attach(machine, backend)
    assert watchdog.manager is backend.manager
    assert (watchdog.manager is None) == (system in ("CGL", "TL2", "HTM-BE"))
