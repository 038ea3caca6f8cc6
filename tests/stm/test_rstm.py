"""RSTM model: ownership, validation, wounding."""

import pytest

from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.errors import TransactionAborted
from repro.params import small_test_params
from repro.runtime.txthread import TxThread
from repro.stm.base import is_locked
from repro.stm.rstm import RstmRuntime
from tests.helpers import drive


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def _thread(runtime, thread_id, proc):
    thread = TxThread(thread_id, runtime, iter(()))
    thread.processor = proc
    return thread


def test_write_acquires_header(m):
    runtime = RstmRuntime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 3))
    header = runtime.headers.orec_address(address)
    word = m.memory.read(header)
    assert is_locked(word) and word >> 1 == 0  # owned by thread 0


def test_commit_publishes_and_releases(m):
    runtime = RstmRuntime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 3))
    drive(m, 0, runtime.commit(thread))
    assert m.memory.read(address) == 3
    header = runtime.headers.orec_address(address)
    assert not is_locked(m.memory.read(header))


def test_buffered_read_after_write(m):
    runtime = RstmRuntime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 3))
    assert drive(m, 0, runtime.read(thread, address)) == 3
    assert m.memory.read(address) == 0  # not yet published


def test_commit_validation_detects_stale_read(m):
    runtime = RstmRuntime(m)
    reader = _thread(runtime, 0, 0)
    writer = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(reader))
    drive(m, 0, runtime.read(reader, address))
    drive(m, 1, runtime.begin(writer))
    drive(m, 1, runtime.write(writer, address, 5))
    drive(m, 1, runtime.commit(writer))
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.commit(reader))


def test_upgrade_hazard_detected_at_acquire(m):
    runtime = RstmRuntime(m)
    victim = _thread(runtime, 0, 0)
    other = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(victim))
    drive(m, 0, runtime.read(victim, address))
    drive(m, 1, runtime.begin(other))
    drive(m, 1, runtime.write(other, address, 5))
    drive(m, 1, runtime.commit(other))
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.write(victim, address, 7))


def test_writer_wounds_conflicting_owner(m):
    """Polka eventually aborts the enemy through its status word."""
    runtime = RstmRuntime(m)
    owner = _thread(runtime, 0, 0)
    challenger = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(owner))
    drive(m, 0, runtime.write(owner, address, 1))
    drive(m, 1, runtime.begin(challenger))
    owner_status = owner.tm.status_address

    # The challenger spins; the owner must eventually be wounded, at
    # which point its (simulated) cleanup releases the header.  We
    # interleave cleanup manually when the wound lands.
    generator = runtime.write(challenger, address, 2)
    result = None
    for _ in range(10_000):
        try:
            op = generator.send(result)
        except StopIteration:
            break
        from tests.helpers import execute_op

        result = execute_op(m, 1, op)
        if m.memory.read(owner_status) == TxStatus.ABORTED:
            drive(m, 0, runtime.on_abort(owner))  # victim cleanup path
    assert m.memory.read(owner_status) == TxStatus.ABORTED
    drive(m, 1, runtime.commit(challenger))
    assert m.memory.read(address) == 2


def test_check_aborted_polls_status(m):
    runtime = RstmRuntime(m)
    thread = _thread(runtime, 0, 0)
    drive(m, 0, runtime.begin(thread))
    thread.in_transaction = True
    assert not runtime.check_aborted(thread)
    m.memory.write(thread.tm.status_address, TxStatus.ABORTED)
    assert runtime.check_aborted(thread)


def test_on_abort_releases_owned_headers(m):
    runtime = RstmRuntime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 1))
    header = runtime.headers.orec_address(address)
    assert is_locked(m.memory.read(header))
    drive(m, 0, runtime.on_abort(thread))
    assert not is_locked(m.memory.read(header))
