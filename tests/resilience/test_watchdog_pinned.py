"""The watchdog never wounds the serial-irrevocable token holder.

The degradation ladder's forward-progress argument leans on the holder
being unkillable: its TSW deflects abort CASes.  If the livelock
watchdog *selected* it anyway, the escalation would burn on a victim
that cannot die — and keep re-selecting it while the real wounders run
free.  These tests lock the victim filter: a deflected descriptor is
never chosen, even when it is the most prolific wounder, and the
escalation falls through to the best killable candidate instead.
"""

import types

from repro.chaos import LivelockWatchdog, WatchdogSpec
from repro.core.descriptor import TransactionDescriptor
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.params import small_test_params
from repro.runtime.contention import ConflictManager


class _PinnedResilience:
    """The slice of the degradation controller the machine consults."""

    def __init__(self, protected_tsw):
        self.protected_tsw = protected_tsw
        self.deflected = 0

    def attach(self, machine):
        pass

    def deflects(self, tsw_address):
        return tsw_address == self.protected_tsw

    def note_deflected(self):
        self.deflected += 1


class _Thread:
    def __init__(self):
        self.commits = 0


class _Scheduler:
    def __init__(self, machine, nthreads=2):
        self.machine = machine
        self.slots = [
            types.SimpleNamespace(thread=_Thread()) for _ in range(nthreads)
        ]


def _watchdog(machine):
    spec = WatchdogSpec(window_cycles=1_000, force_abort_after=0)
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


def _escalate_to_forced_abort(machine, watchdog):
    scheduler = _Scheduler(machine)
    watchdog.observe(scheduler)  # primes the commit baseline
    machine.processors[0].clock.advance(1_000)
    watchdog.observe(scheduler)  # zero patience: straight to forced abort


def test_watchdog_skips_the_irrevocability_holder():
    machine = FlexTMMachine(small_test_params(4))
    # The holder is the *most* prolific wounder — exactly the profile
    # the watchdog's victim policy would otherwise select.
    holder = _active_descriptor(machine, thread_id=0, wounds=9)
    bystander = _active_descriptor(machine, thread_id=1, wounds=2)
    machine.attach(resilience=_PinnedResilience(holder.tsw_address))
    watchdog = _watchdog(machine)
    _escalate_to_forced_abort(machine, watchdog)
    assert machine.read_status(holder) is TxStatus.ACTIVE
    assert machine.read_status(bystander) is TxStatus.ABORTED
    assert bystander.wound_kind == "watchdog"
    assert watchdog.forced_aborts == 1
    # The holder was filtered up front, not CASed-and-deflected: the
    # deflection counter never moved.
    assert machine.resilience.deflected == 0


def test_watchdog_holds_fire_when_only_the_holder_is_active():
    machine = FlexTMMachine(small_test_params(4))
    holder = _active_descriptor(machine, thread_id=0, wounds=5)
    machine.attach(resilience=_PinnedResilience(holder.tsw_address))
    watchdog = _watchdog(machine)
    _escalate_to_forced_abort(machine, watchdog)
    # No killable candidate: the escalation is a no-op, not a wound on
    # (or a burned attempt against) the unkillable holder.
    assert machine.read_status(holder) is TxStatus.ACTIVE
    assert watchdog.forced_aborts == 0
    assert machine.resilience.deflected == 0


def test_watchdog_victim_policy_is_unchanged_without_a_controller():
    machine = FlexTMMachine(small_test_params(4))
    top = _active_descriptor(machine, thread_id=0, wounds=9)
    other = _active_descriptor(machine, thread_id=1, wounds=2)
    watchdog = _watchdog(machine)
    _escalate_to_forced_abort(machine, watchdog)
    assert machine.read_status(top) is TxStatus.ABORTED
    assert machine.read_status(other) is TxStatus.ACTIVE
