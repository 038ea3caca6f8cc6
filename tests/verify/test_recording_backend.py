"""HistoryRecorder armed as a probe: what the runtime's hooks log."""

import itertools

import pytest

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.errors import TransactionAborted
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.verify.history import HistoryRecorder


@pytest.fixture
def rig():
    machine = FlexTMMachine(small_test_params(4))
    recorder = HistoryRecorder()
    machine.attach(probes=recorder)
    backend = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
    return machine, backend, recorder


def _run(machine, backend, *per_thread):
    """Run one TxThread per list of bodies to completion."""
    threads = [
        TxThread(thread_id, backend, [WorkItem(body) for body in bodies])
        for thread_id, bodies in enumerate(per_thread)
    ]
    result = Scheduler(machine, threads).run(cycle_limit=1_000_000)
    assert result.commits == sum(len(bodies) for bodies in per_thread)
    return result


def test_committed_transaction_recorded(rig):
    machine, backend, recorder = rig
    address = machine.allocate_words(1)
    machine.memory.write(address, 3)
    recorder.note_initial(address, 3)
    seen = []

    def body(ctx):
        seen.append((yield from ctx.read(address)))
        yield from ctx.write(address, 9)

    _run(machine, backend, [body])
    assert seen == [3]
    assert len(recorder.committed) == 1
    txn = recorder.committed[0]
    assert txn.reads == {address: 3}
    assert txn.writes == {address: 9}
    assert txn.thread_id == 0


def test_aborted_attempt_not_recorded(rig):
    machine, backend, recorder = rig
    address, other = machine.allocate_words(2), machine.allocate_words(1)
    attempts = itertools.count()

    def body(ctx):
        if next(attempts) == 0:
            yield from ctx.read(other)
            yield from ctx.write(address, 9)
            raise TransactionAborted("first attempt loses")
        yield from ctx.write(address, 7)

    result = _run(machine, backend, [body])
    assert result.aborts == 1
    assert len(recorder.committed) == 1
    txn = recorder.committed[0]
    assert txn.reads == {}
    assert txn.writes == {address: 7}


def test_read_after_own_write_not_logged_as_read(rig):
    machine, backend, recorder = rig
    address = machine.allocate_words(1)
    seen = []

    def body(ctx):
        yield from ctx.write(address, 9)
        seen.append((yield from ctx.read(address)))

    _run(machine, backend, [body])
    assert seen == [9]
    txn = recorder.committed[0]
    assert address not in txn.reads  # it observed its own write
    assert txn.writes == {address: 9}


def test_only_first_read_recorded(rig):
    machine, backend, recorder = rig
    address = machine.allocate_words(1)
    machine.memory.write(address, 5)

    def body(ctx):
        yield from ctx.read(address)
        yield from ctx.read(address)

    _run(machine, backend, [body])
    assert recorder.committed[0].reads == {address: 5}


def test_tickets_are_commit_ordered(rig):
    machine, backend, recorder = rig
    address = machine.allocate_words(1)
    unique = itertools.count(1)

    def body(ctx):
        yield from ctx.work(5)
        yield from ctx.write(address, next(unique))

    _run(machine, backend, [body] * 3, [body] * 3)
    tickets = [txn.ticket for txn in recorder.committed]
    assert tickets == [1, 2, 3, 4, 5, 6]
    assert {txn.thread_id for txn in recorder.committed} == {0, 1}
    # The last ticket is the last commit: its write is what memory holds.
    assert recorder.committed[-1].writes[address] == machine.memory.read(address)
