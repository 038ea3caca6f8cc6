"""Per-thread backend state: one declared record, ``TxThread.tm``.

Every backend in ``SYSTEMS`` builds its thread's record through
``TMBackend.thread_state()`` when the thread is constructed, resets it
when an attempt aborts, and sets no other attribute on the thread.
"""

import ast
from pathlib import Path

import pytest

from repro.core.descriptor import ConflictMode
from repro.core.machine import WORD_BYTES, FlexTMMachine
from repro.core.tsw import TxStatus
from repro.harness.runner import SYSTEMS
from repro.params import small_test_params
from repro.runtime.txthread import TxThread
from repro.stm.base import StmThreadState
from repro.stm.rstm import RstmThreadState
from tests.helpers import drive, execute_op

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _setup(system):
    machine = FlexTMMachine(small_test_params(4))
    backend = SYSTEMS[system](machine, ConflictMode.EAGER)
    return machine, backend


def _thread(backend):
    thread = TxThread(0, backend, iter(()))
    thread.processor = 0
    return thread


def _status_word(thread):
    """The word an enemy writes ABORTED into, if the backend has one."""
    if thread.descriptor is not None:
        return thread.descriptor.tsw_address
    if isinstance(thread.tm, RstmThreadState):
        return thread.tm.status_address
    return None


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_the_record_is_built_once_without_allocating(system):
    machine, backend = _setup(system)
    probe = machine.allocate_words(1)
    thread = _thread(backend)
    # Nothing was carved out of simulated memory between the probes.
    assert machine.allocate_words(1) == probe + WORD_BYTES
    fresh = backend.thread_state()
    assert type(thread.tm) is type(fresh)
    assert thread.tm == fresh
    assert thread.nest_depth == 0


def _pending_work(record):
    """What an attempt's record holds that its abort must discard."""
    if isinstance(record, StmThreadState):
        work = (record.read_set, record.write_map, record.write_orecs)
        if isinstance(record, RstmThreadState):
            work += (record.owned, record.pending)
        return work
    if isinstance(record, list):  # RTM-F's written headers, LogTM-SE's undo log
        return (record,)
    return ()


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_an_aborted_attempt_leaves_the_record_reset(system):
    machine, backend = _setup(system)
    thread = _thread(backend)
    address = machine.allocate_words(1, line_aligned=True)
    thread.in_transaction = True
    drive(machine, 0, backend.begin(thread))
    drive(machine, 0, backend.write(thread, address, 7))
    assert thread.tm is None or any(_pending_work(thread.tm)), "the write left no trace"
    status_word = _status_word(thread)
    if status_word is not None:
        machine.memory.write(status_word, TxStatus.ABORTED)
        assert backend.check_aborted(thread)
    thread.in_transaction = False
    drive(machine, 0, backend.on_abort(thread))
    assert not any(_pending_work(thread.tm))
    assert thread.nest_depth == 0
    if isinstance(thread.tm, RstmThreadState):
        # The owned header is back to its pre-lock word.
        assert machine.memory.read(backend.headers.orec_address(address)) == 0
    if system == "HTM-BE":
        assert backend.active_attempts() == []


def test_rstm_releases_a_header_whose_cas_landed_unbooked():
    """A wound right after the header CAS: ``pending`` restores it."""
    machine, backend = _setup("RSTM")
    thread = _thread(backend)
    address = machine.allocate_words(1, line_aligned=True)
    header = backend.headers.orec_address(address)
    drive(machine, 0, backend.begin(thread))
    writer = backend.write(thread, address, 7)
    result = None
    while True:
        op = writer.send(result)
        result = execute_op(machine, 0, op)
        if op[0] == "cas" and op[1] == header:
            break
    assert result.success
    assert thread.tm.pending == (header, 0) and thread.tm.owned == []
    writer.close()
    drive(machine, 0, backend.on_abort(thread))
    assert machine.memory.read(header) == 0
    assert thread.tm.pending is None and thread.tm.owned == []


def _defaulted_thread_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr")
            and node.args
        ):
            continue
        target = node.args[0]
        if (isinstance(target, ast.Name) and target.id == "thread") or (
            isinstance(target, ast.Attribute) and target.attr == "thread"
        ):
            yield f"{path.relative_to(SRC_ROOT)}:{node.lineno} {node.func.id}"


def test_no_backend_reads_thread_attributes_by_name():
    found = [
        site
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for site in _defaulted_thread_reads(path)
    ]
    assert found == []
