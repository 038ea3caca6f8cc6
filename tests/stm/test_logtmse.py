"""LogTM-SE model: stalls, self-aborts, undo cost, convoying."""

import pytest

from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.stm.logtmse import LogTmSeRuntime
from tests.helpers import drive


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def _thread(runtime, thread_id, proc):
    thread = TxThread(thread_id, runtime, iter(()))
    thread.processor = proc
    return thread


def test_roundtrip(m):
    runtime = LogTmSeRuntime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 5))
    assert drive(m, 0, runtime.read(thread, address)) == 5
    drive(m, 0, runtime.commit(thread))
    assert m.memory.read(address) == 5


def test_reader_stalls_never_reads_threatened_value(m):
    """A read conflicting with a writer must not complete; after the
    writer commits, the reader gets the *new* value (no stale TI read)."""
    runtime = LogTmSeRuntime(m)
    writer = _thread(runtime, 0, 0)
    reader = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(writer))
    drive(m, 0, runtime.write(writer, address, 9))
    drive(m, 1, runtime.begin(reader))
    generator = runtime.read(reader, address)
    from tests.helpers import execute_op

    result = None
    committed = False
    for _ in range(200):
        try:
            op = generator.send(result)
        except StopIteration as stop:
            value = stop.value
            break
        result = execute_op(m, 1, op)
        # Let the writer commit partway through the reader's stalling.
        if not committed and m.processors[1].clock.now > m.processors[0].clock.now + 200:
            drive(m, 0, runtime.commit(writer))
            committed = True
    else:
        pytest.fail("reader never completed")
    assert committed
    assert value == 9  # saw the committed value, never the stale one


def test_self_abort_on_persistent_conflict(m):
    """With the enemy never finishing, the possible-deadlock trap fires
    and the requestor aborts *itself* (no remote aborts in LogTM-SE)."""
    from repro.errors import TransactionAborted

    runtime = LogTmSeRuntime(m)
    blocker = _thread(runtime, 0, 0)
    victim = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(blocker))
    drive(m, 0, runtime.write(blocker, address, 1))
    drive(m, 1, runtime.begin(victim))
    with pytest.raises(TransactionAborted):
        drive(m, 1, runtime.read(victim, address))
    # The blocker was never aborted.
    assert m.read_status(blocker.descriptor) is TxStatus.ACTIVE
    assert m.read_status(victim.descriptor) is TxStatus.ABORTED


def test_abort_cost_scales_with_write_set(m):
    runtime = LogTmSeRuntime(m)
    thread = _thread(runtime, 0, 0)
    base = m.allocate(64 * 32, line_aligned=True)
    drive(m, 0, runtime.begin(thread))
    for index in range(20):
        drive(m, 0, runtime.write(thread, base + index * 64, index))
    m.memory.write(thread.descriptor.tsw_address, TxStatus.ABORTED)
    before = m.processors[0].clock.now
    drive(m, 0, runtime.on_abort(thread))
    undo_cycles = m.processors[0].clock.now - before
    assert undo_cycles >= 20 * 20  # reverse log walk, per-line cost


def test_concurrent_counter_is_serializable(m):
    runtime = LogTmSeRuntime(m)
    counter = m.allocate_words(1, line_aligned=True)

    def increment(ctx):
        value = yield from ctx.read(counter)
        yield from ctx.work(10)
        yield from ctx.write(counter, value + 1)

    def items(count):
        for _ in range(count):
            yield WorkItem(increment)

    threads = [TxThread(i, runtime, items(20)) for i in range(4)]
    result = Scheduler(m, threads).run(cycle_limit=100_000_000)
    assert result.commits == 80
    assert m.memory.read(counter) == 80


def test_convoying_behind_descheduled_transaction():
    """Section 5's qualitative claim: with stall-only management, work
    queues behind a descheduled conflicting transaction; FlexTM's
    remote aborts break the convoy.  Compare commits while a writer
    sleeps mid-transaction."""

    def run(runtime_cls):
        machine = FlexTMMachine(small_test_params(4))
        runtime = runtime_cls(machine)
        hot = machine.allocate(64, line_aligned=True)

        def writer_then_sleep(ctx):
            yield from ctx.write(hot, 1)
            for _ in range(400):  # long transaction: gets descheduled
                yield from ctx.work(100)

        def reader(ctx):
            yield from ctx.read(hot)

        def reader_items():
            while True:
                yield WorkItem(reader)

        threads = [
            TxThread(0, runtime, iter([WorkItem(writer_then_sleep)])),
            TxThread(1, runtime, reader_items()),
            TxThread(2, runtime, reader_items()),
        ]
        # One core: the writer is descheduled mid-transaction.
        scheduler = Scheduler(machine, threads, quantum=2_000, processors=[0])
        result = scheduler.run(cycle_limit=120_000)
        return result

    logtm = run(LogTmSeRuntime)
    flextm = run(FlexTMRuntime)
    # FlexTM readers wound the suspended writer and stream through;
    # LogTM-SE readers can only stall/self-abort behind it.
    assert flextm.commits > logtm.commits * 1.5


def test_lost_commit_race_carries_the_descriptor_attribution(m):
    """The commit-time raise reports who wounded the transaction and
    why, as FlexTM's does: the thread takes attribution from the abort
    alone."""
    from repro.errors import TransactionAborted

    runtime = LogTmSeRuntime(m)
    thread = _thread(runtime, 0, 0)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, m.allocate_words(1), 7))
    assert m.force_abort(thread.descriptor, by=2, kind="watchdog")
    with pytest.raises(TransactionAborted, match="lost the commit race") as aborted:
        drive(m, 0, runtime.commit(thread))
    assert (aborted.value.by, aborted.value.conflict) == (2, "watchdog")
    assert (aborted.value.by, aborted.value.conflict) == (
        thread.descriptor.wounded_by, thread.descriptor.wound_kind
    )
