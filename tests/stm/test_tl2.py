"""TL-2 mechanics: versions, validation, commit locking."""

import pytest

from repro.core.machine import FlexTMMachine
from repro.errors import TransactionAborted
from repro.params import small_test_params
from repro.runtime.txthread import TxThread
from repro.stm.base import encode_version, version_of, is_locked, encode_locked
from repro.stm.tl2 import Tl2Runtime
from tests.helpers import drive


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def _thread(runtime, thread_id, proc):
    thread = TxThread(thread_id, runtime, iter(()))
    thread.processor = proc
    return thread


def test_lock_word_encoding():
    assert version_of(encode_version(5)) == 5
    assert not is_locked(encode_version(5))
    assert is_locked(encode_locked(3))
    assert encode_locked(3) >> 1 == 3


def test_read_write_commit_roundtrip(m):
    runtime = Tl2Runtime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 9))
    assert drive(m, 0, runtime.read(thread, address)) == 9  # own redo log
    drive(m, 0, runtime.commit(thread))
    assert m.memory.read(address) == 9
    # Orec released with a new version.
    orec = runtime.orecs.orec_address(address)
    assert not is_locked(m.memory.read(orec))
    assert version_of(m.memory.read(orec)) > 0


def test_read_only_commit_is_trivial(m):
    runtime = Tl2Runtime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    m.store(0, address, 4)
    drive(m, 0, runtime.begin(thread))
    assert drive(m, 0, runtime.read(thread, address)) == 4
    clock_before = m.memory.read(runtime.clock_address)
    drive(m, 0, runtime.commit(thread))
    assert m.memory.read(runtime.clock_address) == clock_before  # no clock bump


def test_stale_read_aborts_at_read_time(m):
    runtime = Tl2Runtime(m)
    reader = _thread(runtime, 0, 0)
    writer = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(reader))
    # Writer commits, advancing the orec past the reader's read version.
    drive(m, 1, runtime.begin(writer))
    drive(m, 1, runtime.write(writer, address, 5))
    drive(m, 1, runtime.commit(writer))
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.read(reader, address))


def test_upgrade_hazard_detected_at_commit(m):
    """Read X, someone commits X, then we write X: must abort."""
    runtime = Tl2Runtime(m)
    victim = _thread(runtime, 0, 0)
    other = _thread(runtime, 1, 1)
    address_x = m.allocate_words(1, line_aligned=True)
    address_y = m.allocate(m.params.line_bytes * 4, line_aligned=True)
    drive(m, 0, runtime.begin(victim))
    drive(m, 0, runtime.read(victim, address_x))
    drive(m, 1, runtime.begin(other))
    drive(m, 1, runtime.write(other, address_x, 5))
    drive(m, 1, runtime.commit(other))
    drive(m, 0, runtime.write(victim, address_x, 7))
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.commit(victim))
    # Locks released after the failed commit.
    orec = runtime.orecs.orec_address(address_x)
    assert not is_locked(m.memory.read(orec))


def test_commit_validation_catches_concurrent_writer(m):
    runtime = Tl2Runtime(m)
    reader = _thread(runtime, 0, 0)
    writer = _thread(runtime, 1, 1)
    address_x = m.allocate(m.params.line_bytes, line_aligned=True)
    address_y = m.allocate(m.params.line_bytes, line_aligned=True)
    drive(m, 0, runtime.begin(reader))
    drive(m, 0, runtime.read(reader, address_x))
    drive(m, 0, runtime.write(reader, address_y, 1))
    drive(m, 1, runtime.begin(writer))
    drive(m, 1, runtime.write(writer, address_x, 5))
    drive(m, 1, runtime.commit(writer))
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.commit(reader))
    assert m.memory.read(address_y) == 0  # redo log never applied


def test_locked_orec_aborts_reader(m):
    runtime = Tl2Runtime(m)
    reader = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    orec = runtime.orecs.orec_address(address)
    m.memory.write(orec, encode_locked(9))  # someone holds it
    drive(m, 0, runtime.begin(reader))
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.read(reader, address))


def test_on_abort_resets_state(m):
    runtime = Tl2Runtime(m)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 1))
    drive(m, 0, runtime.on_abort(thread))
    assert thread.tm.write_map == {}
    assert thread.tm.read_set == []
