"""FlexTM runtime: begin / Figure 3 Commit() / abort / eager manager."""

import pytest

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine, MemoryOpResult
from repro.core.tsw import TxStatus
from repro.errors import TransactionAborted
from repro.params import small_test_params
from repro.runtime.flextm import NACK_RETRY_CYCLES, FlexTMRuntime
from repro.runtime.txthread import TxThread
from tests.helpers import drive


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def _thread(runtime, thread_id, proc):
    thread = TxThread(thread_id, runtime, items=iter(()))
    thread.processor = proc
    return thread


def test_begin_sets_up_descriptor_and_hardware(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    thread = _thread(runtime, 0, 0)
    drive(m, 0, runtime.begin(thread))
    descriptor = thread.descriptor
    assert descriptor is not None
    assert m.read_status(descriptor) is TxStatus.ACTIVE
    assert m.processors[0].current is descriptor
    assert descriptor in runtime.cmt.active_on(0)
    tsw_line = m.amap.line_of(descriptor.tsw_address)
    assert m.processors[0].alerts.is_marked(tsw_line)


def test_begin_reuses_tsw_across_attempts(m):
    runtime = FlexTMRuntime(m)
    thread = _thread(runtime, 0, 0)
    drive(m, 0, runtime.begin(thread))
    first_tsw = thread.descriptor.tsw_address
    drive(m, 0, runtime.on_abort(thread))
    drive(m, 0, runtime.begin(thread))
    assert thread.descriptor.tsw_address == first_tsw
    assert thread.descriptor.incarnation == 2


def test_read_write_commit_roundtrip(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 7))
    assert drive(m, 0, runtime.read(thread, address)) == 7
    drive(m, 0, runtime.commit(thread))
    assert m.memory.read(address) == 7
    assert thread.descriptor.commits == 1
    assert m.processors[0].current is None


def test_lazy_commit_aborts_enemies(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    writer = _thread(runtime, 0, 0)
    reader = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(writer))
    drive(m, 1, runtime.begin(reader))
    drive(m, 0, runtime.write(writer, address, 5))
    drive(m, 1, runtime.read(reader, address))
    writer.in_transaction = True
    reader.in_transaction = True
    drive(m, 0, runtime.commit(writer))
    assert m.read_status(reader.descriptor) is TxStatus.ABORTED
    assert runtime.check_aborted(reader)
    assert m.memory.read(address) == 5


def test_commit_raises_when_aborted_first(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 5))
    m.memory.write(thread.descriptor.tsw_address, TxStatus.ABORTED)
    with pytest.raises(TransactionAborted):
        drive(m, 0, runtime.commit(thread))
    assert m.memory.read(address) == 0


def test_eager_manager_aborts_enemy_on_conflict(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.EAGER)
    attacker = _thread(runtime, 0, 0)
    victim = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 1, runtime.begin(victim))
    drive(m, 1, runtime.write(victim, address, 9))
    drive(m, 0, runtime.begin(attacker))
    # Attacker writes the same line; Polka eventually wounds the victim.
    drive(m, 0, runtime.write(attacker, address, 3))
    assert m.read_status(victim.descriptor) is TxStatus.ABORTED
    # Conflict resolved: attacker's CSTs are clean again.
    assert m.processors[0].csts.is_empty
    drive(m, 0, runtime.commit(attacker))
    assert m.memory.read(address) == 3


def test_eager_commit_with_no_conflicts_is_one_cas(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.EAGER)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 1))
    drive(m, 0, runtime.commit(thread))
    assert m.read_status(thread.descriptor) is TxStatus.COMMITTED


def test_on_abort_cleans_hardware_and_cmt(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    thread = _thread(runtime, 0, 0)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, runtime.write(thread, address, 5))
    m.memory.write(thread.descriptor.tsw_address, TxStatus.ABORTED)
    drive(m, 0, runtime.on_abort(thread))
    assert m.processors[0].current is None
    assert thread.descriptor not in runtime.cmt.active_on(0)
    assert m.memory.read(address) == 0


def test_check_aborted_only_in_transaction(m):
    runtime = FlexTMRuntime(m)
    thread = _thread(runtime, 0, 0)
    assert not runtime.check_aborted(thread)
    drive(m, 0, runtime.begin(thread))
    thread.in_transaction = True
    assert not runtime.check_aborted(thread)
    m.memory.write(thread.descriptor.tsw_address, TxStatus.ABORTED)
    assert runtime.check_aborted(thread)


def test_clean_r_w_prevents_spurious_enemy_cas(m):
    """Figure 3's hygiene: a committing reader clears itself out of the
    writer's W-R so the writer does not CAS a dead transaction."""
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY, clean_r_w=True)
    writer = _thread(runtime, 0, 0)
    reader = _thread(runtime, 1, 1)
    address = m.allocate_words(1)
    drive(m, 0, runtime.begin(writer))
    drive(m, 1, runtime.begin(reader))
    drive(m, 0, runtime.write(writer, address, 5))
    drive(m, 1, runtime.read(reader, address))
    assert m.processors[0].csts.w_r.test(1)
    drive(m, 1, runtime.commit(reader))  # reader commits first
    assert not m.processors[0].csts.w_r.test(1)
    drive(m, 0, runtime.commit(writer))
    assert m.read_status(writer.descriptor) is TxStatus.COMMITTED


def test_an_access_is_reissued_after_every_nack(m):
    """A NACKed TLoad/TStore (committed-OT copy-back) backs off and is
    re-issued until the directory accepts it, however often it is NACKed."""
    runtime = FlexTMRuntime(m)
    thread = _thread(runtime, 0, 0)
    nacked = MemoryOpResult(cycles=3, nacked=True)
    accepted = MemoryOpResult(value=9, cycles=1)
    for access, op, returned in (
        (runtime.read(thread, 64), ("tload", 64), 9),
        (runtime.write(thread, 64, 5), ("tstore", 64, 5), None),
    ):
        ops = [access.send(None)]
        for reply in (nacked, None, nacked, None):
            ops.append(access.send(reply))
        with pytest.raises(StopIteration) as done:
            access.send(accepted)
        assert ops == [op, ("work", NACK_RETRY_CYCLES)] * 2 + [op]
        assert done.value.value == returned
