"""HTM-BE mechanics: capacity bounds, eager conflicts, the fallback ladder."""

import dataclasses

import pytest

from repro.core.machine import FlexTMMachine
from repro.errors import TransactionAborted
from repro.params import small_test_params
from repro.resilience.fallback import (
    IRREVOCABLE_PATH,
    SW_PATH,
    FallbackSpec,
)
from repro.runtime.txthread import TxThread
from repro.stm.htmbe import HtmBestEffortRuntime
from tests.helpers import drive


@pytest.fixture
def m():
    params = small_test_params(4)
    return FlexTMMachine(
        dataclasses.replace(params, htm_read_lines=4, htm_write_lines=2)
    )


def _thread(runtime, thread_id, proc):
    thread = TxThread(thread_id, runtime, iter(()))
    thread.processor = proc
    return thread


def _lines(m, count):
    """Distinct line-aligned cells, one per cache line."""
    return [
        m.allocate(m.params.line_bytes, line_aligned=True) for _ in range(count)
    ]


def test_read_write_commit_roundtrip(m):
    runtime = HtmBestEffortRuntime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 9))
    assert drive(m, 0, runtime.read(thread, address)) == 9  # own redo log
    assert m.memory.read(address) == 0  # buffered until commit
    drive(m, 0, runtime.commit(thread))
    assert m.memory.read(address) == 9
    assert runtime.policy.escalation_counters() == {"fallback_commits_htm": 1}


def test_write_capacity_abort_at_bound(m):
    runtime = HtmBestEffortRuntime(m)
    thread = _thread(runtime, 0, 0)
    cells = _lines(m, 3)  # write bound is 2 lines
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, cells[0], 1))
    drive(m, 0, runtime.write(thread, cells[1], 1))
    with pytest.raises(TransactionAborted) as aborted:
        drive(m, 0, runtime.write(thread, cells[2], 1))
    assert aborted.value.conflict == "capacity"
    drive(m, 0, runtime.on_abort(thread))
    assert m.memory.read(cells[0]) == 0  # nothing leaked to memory
    # Capacity fast-forwards the ladder past the remaining HTM budget.
    assert runtime.policy.path_for(0) == SW_PATH


def test_read_capacity_abort_at_bound(m):
    runtime = HtmBestEffortRuntime(m)
    thread = _thread(runtime, 0, 0)
    cells = _lines(m, 5)  # read bound is 4 lines
    drive(m, 0, runtime.begin(thread))
    for cell in cells[:4]:
        drive(m, 0, runtime.read(thread, cell))
    with pytest.raises(TransactionAborted) as aborted:
        drive(m, 0, runtime.read(thread, cells[4]))
    assert aborted.value.conflict == "capacity"


def test_conflicting_requestor_self_aborts(m):
    runtime = HtmBestEffortRuntime(m)
    writer = _thread(runtime, 0, 0)
    reader = _thread(runtime, 1, 1)
    address = m.allocate_words(1, line_aligned=True)
    drive(m, 0, runtime.begin(writer))
    drive(m, 0, runtime.write(writer, address, 5))
    drive(m, 1, runtime.begin(reader))
    with pytest.raises(TransactionAborted) as aborted:
        drive(m, 1, runtime.read(reader, address))
    assert aborted.value.conflict == "htm-conflict"
    assert aborted.value.by == 0  # the attacker dies, the writer survives
    drive(m, 1, runtime.on_abort(reader))
    drive(m, 0, runtime.commit(writer))
    assert m.memory.read(address) == 5


def test_write_after_remote_read_conflicts(m):
    runtime = HtmBestEffortRuntime(m)
    reader = _thread(runtime, 0, 0)
    writer = _thread(runtime, 1, 1)
    address = m.allocate_words(1, line_aligned=True)
    drive(m, 0, runtime.begin(reader))
    drive(m, 0, runtime.read(reader, address))
    drive(m, 1, runtime.begin(writer))
    with pytest.raises(TransactionAborted) as aborted:
        drive(m, 1, runtime.write(writer, address, 7))
    assert aborted.value.conflict == "htm-conflict"


def test_suspend_dooms_hardware_attempt(m):
    runtime = HtmBestEffortRuntime(m)
    thread = _thread(runtime, 0, 0)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, m.allocate_words(1), 3))
    runtime.suspend(thread)
    assert runtime.check_aborted(thread)
    assert runtime.resume(thread, 1, None) == "aborted"
    aborted = runtime.abort_exception(thread, "aborted while descheduled")
    assert (aborted.by, aborted.conflict) == (-1, "explicit")
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.commit(thread))


def test_software_path_survives_suspend_and_capacity(m):
    spec = FallbackSpec(htm_retries=1, sw_retries=8)
    runtime = HtmBestEffortRuntime(m, spec)
    runtime.policy.note_abort(0, "htm-conflict")  # streak 1 -> sw path
    thread = _thread(runtime, 0, 0)
    cells = _lines(m, 4)  # above the hardware write bound of 2
    drive(m, 0, runtime.begin(thread))
    assert runtime.active_attempts() == [(0, SW_PATH, False, False)]
    runtime.suspend(thread)  # software state survives a context switch
    assert not runtime.check_aborted(thread)
    for index, cell in enumerate(cells):
        drive(m, 0, runtime.write(thread, cell, index))
    drive(m, 0, runtime.commit(thread))
    assert [m.memory.read(cell) for cell in cells] == [0, 1, 2, 3]
    assert runtime.policy.escalation_counters()["fallback_commits_sw"] == 1


def test_irrevocable_grant_drains_peers(m):
    spec = FallbackSpec(htm_retries=1, sw_retries=1)
    runtime = HtmBestEffortRuntime(m, spec)
    victim = _thread(runtime, 0, 0)
    serial = _thread(runtime, 1, 1)
    drive(m, 0, runtime.begin(victim))
    runtime.policy.note_abort(1, "htm-conflict")
    runtime.policy.note_abort(1, "htm-conflict")  # streak 2 -> irrevocable
    assert runtime.policy.path_for(1) == IRREVOCABLE_PATH
    drive(m, 1, runtime.begin(serial))
    # The grant doomed the in-flight peer with the fallback wound kind.
    assert runtime.check_aborted(victim)
    aborted = runtime.abort_exception(victim, "status word changed")
    assert (aborted.by, aborted.conflict) == (1, "fallback")
    assert runtime.policy.serial_active
    assert runtime.policy.token_holders() == [1]
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.commit(victim))
    drive(m, 0, runtime.on_abort(victim))
    # The serial commit releases the token and leaves serial mode.
    address = m.allocate_words(1)
    drive(m, 1, runtime.write(serial, address, 11))
    drive(m, 1, runtime.commit(serial))
    assert m.memory.read(address) == 11
    assert not runtime.policy.serial_active
    assert not runtime.policy.token.busy
    counters = runtime.policy.escalation_counters()
    assert counters["fallback_commits_irrevocable"] == 1
    assert counters["fallback_grants"] == 1
    assert counters["fallback_dooms"] == 1


def test_committing_peer_still_wins_conflicts(m):
    runtime = HtmBestEffortRuntime(m)
    committer = _thread(runtime, 0, 0)
    attacker = _thread(runtime, 1, 1)
    address = m.allocate_words(1, line_aligned=True)
    drive(m, 0, runtime.begin(committer))
    drive(m, 0, runtime.write(committer, address, 1))
    # Step the committer into its write-back window by hand.
    gen = runtime.commit(committer)
    op = next(gen)
    while op[0] == "work":
        op = gen.send(None)
    assert op[0] == "store"
    drive(m, 1, runtime.begin(attacker))
    with pytest.raises(TransactionAborted) as aborted:
        drive(m, 1, runtime.read(attacker, address))
    assert aborted.value.conflict == "htm-conflict"
    drive(m, 1, runtime.on_abort(attacker))
    with pytest.raises(StopIteration):
        gen.send(m.store(0, address, 1))


def test_retry_backoff_delegates_to_policy(m):
    runtime = HtmBestEffortRuntime(m)
    assert runtime.retry_backoff(0) == 0
    assert runtime.retry_backoff(1) == 32
    assert runtime.retry_backoff(2) == 64
    assert runtime.retry_backoff(99) == 2048  # capped


def test_machine_exposes_fallback_policy(m):
    runtime = HtmBestEffortRuntime(m)
    assert m.htm_fallback is runtime.policy
    assert runtime.policy.active_attempts() == []
