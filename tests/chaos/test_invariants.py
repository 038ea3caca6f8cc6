"""The runtime invariant checker."""

import pytest

from repro.chaos import InvariantChecker
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.errors import InvariantViolation
from repro.params import small_test_params


@pytest.fixture
def machine():
    return FlexTMMachine(small_test_params(4))


def test_fresh_machine_passes_sweep(machine):
    checker = InvariantChecker()
    checker.check_machine(machine)
    assert checker.sweeps == 1


def test_sweep_passes_after_plain_traffic(machine):
    checker = InvariantChecker()
    machine.attach(invariants=checker)
    base = machine.allocate_words(32, line_aligned=True)
    for proc in range(4):
        machine.store(proc, base + 8 * proc, proc)
        machine.load(proc, base)
    checker.check_machine(machine)


@pytest.mark.parametrize(
    "old,new",
    [
        (TxStatus.INVALID, TxStatus.ACTIVE),
        (TxStatus.ACTIVE, TxStatus.COMMITTED),
        (TxStatus.ACTIVE, TxStatus.ABORTED),
        (TxStatus.ACTIVE, TxStatus.COMMITTING),
        (TxStatus.COMMITTING, TxStatus.COMMITTED),
        (TxStatus.ABORTED, TxStatus.ACTIVE),
    ],
)
def test_legal_tsw_transitions(old, new):
    InvariantChecker().on_tsw_write(0x100, int(old), int(new))


@pytest.mark.parametrize(
    "old,new",
    [
        (TxStatus.COMMITTED, TxStatus.ABORTED),
        (TxStatus.ABORTED, TxStatus.COMMITTED),
        (TxStatus.INVALID, TxStatus.COMMITTED),
        (TxStatus.COMMITTING, TxStatus.ACTIVE),
    ],
)
def test_illegal_tsw_transitions_raise(old, new):
    with pytest.raises(InvariantViolation) as info:
        InvariantChecker().on_tsw_write(0x100, int(old), int(new))
    assert info.value.invariant == "tsw-legality"


def test_same_value_tsw_rewrite_tolerated():
    InvariantChecker().on_tsw_write(0x100, int(TxStatus.ACTIVE), int(TxStatus.ACTIVE))


def test_non_status_tsw_value_raises():
    with pytest.raises(InvariantViolation) as info:
        InvariantChecker().on_tsw_write(0x100, int(TxStatus.ACTIVE), 0xDEAD)
    assert info.value.invariant == "tsw-legality"
    assert "0xdead" in str(info.value) or "57005" in str(info.value)


def test_idle_hygiene_catches_stale_cst(machine):
    checker = InvariantChecker()
    # Corrupt an idle core: set a CST bit with no running transaction.
    machine.processors[2].csts.r_w.set(1)
    with pytest.raises(InvariantViolation) as info:
        checker.check_machine(machine)
    assert info.value.invariant == "idle-hygiene"
    assert "proc 2" in info.value.detail


def test_idle_hygiene_catches_stale_overlay(machine):
    machine.processors[1].overlay[0x40] = 99
    with pytest.raises(InvariantViolation) as info:
        InvariantChecker().check_machine(machine)
    assert info.value.invariant == "idle-hygiene"


def test_owner_listing_catches_unlisted_exclusive(machine):
    # Give proc 0 an exclusive copy the directory knows about, then
    # wipe the directory entry behind its back.
    base = machine.allocate_words(8, line_aligned=True)
    machine.store(0, base, 1)
    line = base // machine.params.line_bytes
    assert machine.directory._entries.pop(line, None) is not None
    with pytest.raises(InvariantViolation) as info:
        InvariantChecker().check_machine(machine)
    assert info.value.invariant == "owner-listing"


def test_violation_is_structured():
    error = InvariantViolation("cst-symmetry", "proc 0 vs proc 1")
    assert error.invariant == "cst-symmetry"
    assert error.detail == "proc 0 vs proc 1"
    assert "cst-symmetry" in str(error)
