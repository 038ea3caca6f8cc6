"""Overflow-table behaviour at the machine level (Section 4.1).

These exercise the full path: TMI eviction -> OT spill -> Osig-filtered
refill on a later access -> committed copy-back with remote NACKs.
"""

import dataclasses

import pytest

from repro.coherence.states import LineState
from repro.core.descriptor import ConflictMode, RunState
from repro.core.machine import FlexTMMachine
from repro.params import CacheGeometry, SystemParams
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from tests.helpers import begin_hardware_transaction
from tests.op_digest import run_cell


def _tiny_l1_params():
    """1-way 256B L1 (4 lines): trivially overflowed write sets."""
    return SystemParams(
        num_processors=2,
        l1=CacheGeometry(size_bytes=256, associativity=1, line_bytes=64),
        l2=CacheGeometry(size_bytes=64 * 1024, associativity=8, line_bytes=64),
        victim_buffer_entries=0,
        ot_initial_sets=4,
    )


@pytest.fixture
def m():
    return FlexTMMachine(_tiny_l1_params())


def _write_lines(machine, proc, base, count, value_of=lambda i: i + 1):
    for index in range(count):
        machine.tstore(proc, base + index * 64, value_of(index))


def test_tmi_eviction_spills_to_ot(m):
    begin_hardware_transaction(m, 0)
    base = m.allocate(64 * 16, line_aligned=True)
    _write_lines(m, 0, base, 8)
    proc = m.processors[0]
    assert proc.ot.active
    assert proc.ot.count > 0
    assert m.stats.counter("ot.spills").value > 0


def test_ot_refill_on_reaccess(m):
    begin_hardware_transaction(m, 0)
    base = m.allocate(64 * 16, line_aligned=True)
    _write_lines(m, 0, base, 8)
    # Re-read the first line: it was evicted to the OT; the value must
    # come back from the overlay and the line refills as TMI.
    result = m.tload(0, base)
    assert result.value == 1
    refills = m.stats.counter("ot.refills").value
    assert refills >= 1
    line = m.processors[0].l1.array.peek(m.amap.line_of(base))
    assert line is not None and line.state is LineState.TMI


def test_overflowed_transaction_commits_atomically(m):
    begin_hardware_transaction(m, 0)
    base = m.allocate(64 * 16, line_aligned=True)
    _write_lines(m, 0, base, 10)
    assert m.cas_commit(0).success
    for index in range(10):
        assert m.memory.read(base + index * 64) == index + 1
    # OT begins its copy-back (committed bit set).
    assert m.processors[0].ot.committed


def test_overflowed_transaction_abort_discards_everything(m):
    descriptor = begin_hardware_transaction(m, 0)
    base = m.allocate(64 * 16, line_aligned=True)
    _write_lines(m, 0, base, 10)
    m.processors[0].flash_abort()
    for index in range(10):
        assert m.memory.read(base + index * 64) == 0
    assert not m.processors[0].ot.active  # returned to the OS


def test_copyback_window_nacks_remote_requests(m):
    begin_hardware_transaction(m, 0)
    base = m.allocate(64 * 16, line_aligned=True)
    _write_lines(m, 0, base, 10)
    assert m.cas_commit(0).success
    assert m.processors[0].ot.copyback_until > 0
    # A remote access inside the window gets NACKed and must retry.
    result = m.load(1, base)
    assert result.nacked
    assert m.stats.counter("ot.nacks").value >= 1
    # After the drain completes the same access succeeds.
    m.processors[1].clock.advance_to(m.processors[0].ot.copyback_until + 1)
    result = m.load(1, base)
    assert not result.nacked
    assert result.value == 1


def test_remote_conflict_detected_for_overflowed_line(m):
    """Signatures answer for lines living in the OT: the directory keeps
    the owner listed and the Wsig still says Threatened."""
    begin_hardware_transaction(m, 0)
    begin_hardware_transaction(m, 1)
    base = m.allocate(64 * 16, line_aligned=True)
    _write_lines(m, 0, base, 8)  # first lines have overflowed by now
    result = m.tload(1, base)
    assert result.conflicts, "conflict lost when TMI line moved to OT"
    assert result.value == 0  # speculative value invisible


def test_paging_retag_keeps_lookup_working(m):
    begin_hardware_transaction(m, 0)
    base = m.allocate(64 * 16, line_aligned=True)
    _write_lines(m, 0, base, 8)
    proc = m.processors[0]
    spilled = proc.ot.committed_lines()
    physical, logical = spilled[0]
    # OS re-maps the page: update tags and signatures (Section 4.1).
    new_physical = physical + (1 << 20)
    assert proc.ot.table.retag(physical, new_physical)
    proc.ot.osig.insert(new_physical)
    assert proc.ot.lookup(new_physical)


# ---------------------------------------------- the copy-back NACK list


def _check_every_nack(monkeypatch):
    """Check each request's NACK answer against a scan of every OT.

    The machine asks only the processors on its copy-back list; the
    reference is the full scan, and the list must equal the processors
    whose OT is committed.  Returns the list of answers checked.
    """
    answers = []
    nack_check = FlexTMMachine._nack_check

    def checked(self, line_address, requestor):
        now = self.processors[requestor].clock.now
        expected = any(
            proc.proc_id != requestor and proc.ot.nacks(line_address, now)
            for proc in self.processors
        )
        assert self._copying_back == tuple(p for p in self.processors if p.ot.committed)
        answer = nack_check(self, line_address, requestor)
        assert answer == expected, (line_address, requestor, now)
        answers.append(answer)
        return answer

    # Patched before any machine is built: the directory binds the hook.
    monkeypatch.setattr(FlexTMMachine, "_nack_check", checked)
    return answers


def _suspend(machine, proc_id):
    """OS suspend path against machine internals (runtime-free)."""
    proc = machine.processors[proc_id]
    descriptor = proc.current
    descriptor.run_state = RunState.SUSPENDED
    saved = proc.save_transactional_state()
    machine.summary.install(descriptor.thread_id, saved.rsig, saved.wsig, proc_id)
    machine.register_suspended(descriptor)
    return descriptor, saved


def _resume(machine, proc_id, descriptor, saved):
    machine.summary.remove(descriptor.thread_id)
    machine.unregister_suspended(descriptor.thread_id)
    machine.processors[proc_id].restore_transactional_state(descriptor, saved)
    descriptor.run_state = RunState.RUNNING


def test_copyback_list_follows_commit_suspend_and_resume(monkeypatch):
    answers = _check_every_nack(monkeypatch)
    m = FlexTMMachine(_tiny_l1_params())
    proc = m.processors[0]
    base = m.allocate(64 * 16, line_aligned=True)
    begin_hardware_transaction(m, 0)
    _write_lines(m, 0, base, 10)
    # A suspend carries the (speculative) OT away, and a resume brings
    # it back; neither puts it on the list.
    descriptor, saved = _suspend(m, 0)
    assert saved.ot_registers is not None and not proc.ot.active
    m.load(1, base + 64 * 12)
    _resume(m, 0, descriptor, saved)
    assert proc.ot.active and m._copying_back == ()
    assert m.cas_commit(0).success
    assert m._copying_back == (proc,)
    assert not m.load(0, base).nacked  # its own copy-back never NACKs it
    assert m.load(1, base).nacked
    # Suspended between CAS-Commit and the end of the transaction: the
    # committed OT leaves the list with its registers, and returns on
    # resume with its copy-back window.
    descriptor, saved = _suspend(m, 0)
    assert saved.ot_registers["committed"] and m._copying_back == ()
    assert not m.load(1, base + 64).nacked
    _resume(m, 0, descriptor, saved)
    assert m._copying_back == (proc,)
    assert m.load(1, base + 64 * 2).nacked
    m.processors[1].clock.advance_to(proc.ot.copyback_until)
    assert not m.load(1, base + 64 * 3).nacked
    # The next transaction releases the OT.
    proc.end_transaction()
    begin_hardware_transaction(m, 0)
    assert m._copying_back == ()
    assert answers.count(True) == 2 and answers.count(False) > 2


def test_copyback_list_matches_a_full_scan_on_every_request(monkeypatch):
    """Two writers overflow and copy back while two plain readers load
    their lines; four threads share three cores, so a quantum preempts."""
    answers = _check_every_nack(monkeypatch)
    m = FlexTMMachine(dataclasses.replace(_tiny_l1_params(), num_processors=3))
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    lines = [[m.allocate(64, line_aligned=True) for _ in range(8)] for _ in range(2)]

    def writer(thread_id):
        k = 0
        while True:
            def txn(ctx, k=k):
                for address in lines[thread_id]:
                    yield from ctx.write(address, k)

            yield WorkItem(txn)
            k += 1

    def reader(thread_id):
        k = 0
        while True:
            def body(ctx, k=k):
                yield ("load", lines[k % 2][(k * 7 + thread_id) % 8])
                yield ("work", 5)

            yield WorkItem(body, transactional=False)
            k += 1

    threads = [TxThread(t, runtime, writer(t)) for t in (0, 1)]
    threads += [TxThread(t, runtime, reader(t)) for t in (2, 3)]
    result = Scheduler(m, threads, quantum=800).run(cycle_limit=60_000)
    assert result.commits > 0 and result.stats["ctxsw.switches"] > 0
    assert result.stats["ot.nacks"] == answers.count(True) > 0
    assert len(answers) > 1000


# ---------------------------------------------- the OT-empty refill skip


@pytest.mark.parametrize("holder", ["overflow-table", "tmi-victims"])
def test_skipping_an_empty_ot_changes_no_access(holder):
    """Every access of the run is pinned by the op-digest oracle
    (``tests/op_digest.py``); a TLoad/TStore asks the OT only when it
    holds lines, so it is asked fewer times than there are of them."""
    cell = run_cell(f"named/ot-refills/{holder}")
    result, asked = cell.result, cell.counts["ot-refill",]
    assert result.commits > 0
    assert cell.counts["op", "tload"] + cell.counts["op", "tstore"] > asked
    if holder == "tmi-victims":
        assert "ot.spills" not in result.stats and not asked
        assert result.stats["l1.victim_hits"] > 0
    else:
        assert result.stats["ot.spills"] > 0
        assert result.stats["ot.refills"] > 0
