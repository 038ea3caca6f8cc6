"""Context-switch virtualization (Section 5, E8).

Exercised at the hardware level (save/restore on the processor) and at
the machine level (summary signatures catching conflicts against
descheduled transactions).
"""

import pytest

from repro.coherence.messages import ResponseKind
from repro.core.descriptor import RunState
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.params import small_test_params
from tests.helpers import begin_hardware_transaction


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def _suspend(m, proc_id):
    """OS suspend path against machine internals (runtime-free)."""
    proc = m.processors[proc_id]
    descriptor = proc.current
    descriptor.run_state = RunState.SUSPENDED
    saved = proc.save_transactional_state()
    descriptor.saved = saved
    m.summary.install(descriptor.thread_id, saved.rsig, saved.wsig, proc_id)
    m.register_suspended(descriptor)
    return descriptor, saved


def test_save_flushes_speculative_state(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    descriptor, saved = _suspend(m, 0)
    proc = m.processors[0]
    assert proc.l1.array.peek(m.amap.line_of(address)) is None
    assert proc.rsig.is_empty and proc.wsig.is_empty
    assert proc.overlay == {}
    assert saved.overlay[address] == 42
    assert saved.wsig.member(m.amap.line_of(address))


def test_restore_reinstates_registers(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    descriptor, saved = _suspend(m, 0)
    proc = m.processors[0]
    proc.restore_transactional_state(descriptor, saved)
    assert proc.overlay[address] == 42
    assert proc.wsig.member(m.amap.line_of(address))
    # The transaction can continue and commit its value.
    m.memory.write(descriptor.tsw_address, TxStatus.ACTIVE)
    descriptor.run_state = RunState.RUNNING
    assert m.cas_commit(0).success
    assert m.memory.read(address) == 42


def test_summary_conflict_traps_and_updates_saved_csts(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    descriptor, _ = _suspend(m, 0)
    # A running transaction on another core misses and conflicts.
    begin_hardware_transaction(m, 1)
    result = m.tload(1, address)
    assert (0, ResponseKind.THREATENED) in result.conflicts
    assert m.stats.counter("summary.traps").value >= 1
    # The suspended transaction's saved W-R names processor 1.
    assert descriptor.saved.csts["w_r"] == 1 << 1
    # The running requestor's R-W names processor 0 (the CMT home).
    assert m.processors[1].csts.r_w.test(0)


def test_summary_read_vs_suspended_reader_no_conflict(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tload(0, address)
    _suspend(m, 0)
    begin_hardware_transaction(m, 1)
    traps_before = m.stats.counter("summary.traps").value
    result = m.tload(1, address)
    assert result.conflicts == []
    # GETS vs an Rsig-only hit answers Shared, no conflict: no trap.
    assert m.stats.counter("summary.traps").value == traps_before


def test_summary_write_vs_suspended_reader_conflicts(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tload(0, address)
    descriptor, _ = _suspend(m, 0)
    begin_hardware_transaction(m, 1)
    result = m.tstore(1, address, 1)
    assert (0, ResponseKind.EXPOSED_READ) in result.conflicts
    assert descriptor.saved.csts["r_w"] == 1 << 1


def test_nontx_store_aborts_suspended_writer(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    descriptor, _ = _suspend(m, 0)
    m.store(1, address, 5)
    assert m.read_status(descriptor) is TxStatus.ABORTED


def test_nontx_store_aborts_the_suspended_transaction_not_the_running_one(m):
    """Strong isolation aborts the descriptor the summary handler found.

    The suspended transaction's CMT home runs an unrelated transaction
    by then; that one must survive.
    """
    line_bytes = m.params.line_bytes
    line_a = m.allocate(line_bytes, line_aligned=True)
    line_b = m.allocate(line_bytes, line_aligned=True)
    begin_hardware_transaction(m, 0)
    m.tstore(0, line_a, 42)
    suspended, _ = _suspend(m, 0)
    running = begin_hardware_transaction(m, 0)
    running.thread_id = 1
    m.tload(0, line_b)
    result = m.store(1, line_a, 5)
    assert result.conflicts == [(0, ResponseKind.THREATENED)]
    assert m.read_status(suspended) is TxStatus.ABORTED
    assert (suspended.wounded_by, suspended.wound_kind) == (1, "SI")
    assert m.read_status(running) is TxStatus.ACTIVE
    assert m.processors[0].current is running
    assert m.stats.counter("strong_isolation.aborts").value == 1


def test_summary_handler_refines_per_thread(m):
    """The handler re-tests each suspended thread's saved signatures."""
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tload(0, address)
    _suspend(m, 0)
    begin_hardware_transaction(m, 1)
    m.tstore(1, address, 7)
    _suspend(m, 1)
    # A read conflicts only with the suspended writer (thread 1) ...
    begin_hardware_transaction(m, 2)
    assert m.tload(2, address).conflicts == [(1, ResponseKind.THREATENED)]
    # ... a write with the reader (0) and the writer (1), in thread
    # order, after the running reader on core 2 answers.
    begin_hardware_transaction(m, 3)
    assert m.tstore(3, address, 9).conflicts == [
        (2, ResponseKind.EXPOSED_READ),
        (0, ResponseKind.EXPOSED_READ),
        (1, ResponseKind.THREATENED),
    ]


def test_summary_handler_reads_the_saved_signatures(m):
    """Each descriptor is re-tested against its *saved* Rsig/Wsig."""
    line_bytes = m.params.line_bytes
    written = m.allocate(line_bytes, line_aligned=True)
    read = m.allocate(line_bytes, line_aligned=True)
    begin_hardware_transaction(m, 0)
    m.tstore(0, written, 1)
    m.tload(0, read)
    descriptor, saved = _suspend(m, 0)
    begin_hardware_transaction(m, 1)
    # Their write vs our read, their read vs our write: conflicts.
    assert m.tload(1, written).conflicts == [(0, ResponseKind.THREATENED)]
    assert m.tstore(1, read, 2).conflicts == [(0, ResponseKind.EXPOSED_READ)]
    # Read vs read is none: a fresh line in the saved Rsig only.
    other = m.allocate(line_bytes, line_aligned=True)
    saved.rsig.insert(m.amap.line_of(other))
    m.summary.install(descriptor.thread_id, saved.rsig, saved.wsig, 0)
    begin_hardware_transaction(m, 2)
    assert m.tload(2, other).conflicts == []
    # With the saved Wsig emptied, the summary union still traps on the
    # written line, but the handler finds no conflict.
    saved.wsig.clear()
    begin_hardware_transaction(m, 3)
    traps_before = m.stats.counter("summary.traps").value
    assert m.tload(3, written).conflicts == []
    assert m.stats.counter("summary.traps").value == traps_before + 1


def test_summary_handler_sets_responder_cst_in_saved_csts(m):
    """Each requestor lands in the saved CST RESPONDER_CST names."""
    line_bytes = m.params.line_bytes
    written = m.allocate(line_bytes, line_aligned=True)
    read = m.allocate(line_bytes, line_aligned=True)
    begin_hardware_transaction(m, 0)
    m.tstore(0, written, 1)
    m.tload(0, read)
    descriptor, _ = _suspend(m, 0)
    begin_hardware_transaction(m, 3)
    m.tload(3, written)  # GETS vs Wsig: W-R
    begin_hardware_transaction(m, 1)
    m.tstore(1, written, 2)  # TGETX vs Wsig: W-W
    begin_hardware_transaction(m, 2)
    m.tstore(2, read, 3)  # TGETX vs Rsig only: R-W
    assert descriptor.saved.csts == {"r_w": 1 << 2, "w_r": 1 << 3, "w_w": 1 << 1}


def test_summary_handler_skips_descriptor_without_saved_state(m):
    """A descriptor caught mid-switch (no saved state yet) is skipped."""
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    descriptor, _ = _suspend(m, 0)
    descriptor.saved = None
    begin_hardware_transaction(m, 1)
    traps_before = m.stats.counter("summary.traps").value
    result = m.tload(1, address)
    # The summary union still traps; the handler finds no one to answer.
    assert m.stats.counter("summary.traps").value == traps_before + 1
    assert result.conflicts == []


def test_summary_removed_on_resume(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    descriptor, saved = _suspend(m, 0)
    m.summary.remove(descriptor.thread_id)
    m.unregister_suspended(descriptor.thread_id)
    begin_hardware_transaction(m, 1)
    traps_before = m.stats.counter("summary.traps").value
    m.tload(1, address)
    assert m.stats.counter("summary.traps").value == traps_before


def test_sticky_sharer_keeps_directory_listing(m):
    """Cores-Summary: the directory must keep forwarding to a core whose
    descheduled transaction accessed the line."""
    address = m.allocate_words(1)
    line = m.amap.line_of(address)
    begin_hardware_transaction(m, 0)
    m.tload(0, address)
    _suspend(m, 0)
    assert m.summary.sticky_sharer(line, 0)
    # Another core takes the line exclusively; proc 0's L1 dropped it on
    # suspend, but the directory must keep it listed.
    m.store(1, address, 1)
    entry = m.directory.peek_entry(line)
    assert entry.is_sharer(0) or entry.is_owner(0)
