"""Conflict management table invariants (Section 5)."""

import pytest

from repro.core.cmt import ConflictManagementTable
from repro.core.descriptor import TransactionDescriptor


def _descriptor(thread_id):
    return TransactionDescriptor(thread_id=thread_id, tsw_address=thread_id * 64)


def test_register_and_lookup():
    cmt = ConflictManagementTable(4)
    descriptor = _descriptor(1)
    cmt.register(2, descriptor)
    assert cmt.active_on(2) == [descriptor]
    assert descriptor.last_processor == 2


def test_register_is_idempotent():
    cmt = ConflictManagementTable(4)
    descriptor = _descriptor(1)
    cmt.register(0, descriptor)
    cmt.register(0, descriptor)
    assert len(cmt.active_on(0)) == 1


def test_unregister_removes_everywhere():
    cmt = ConflictManagementTable(4)
    descriptor = _descriptor(1)
    cmt.register(0, descriptor)
    cmt.register(1, descriptor)  # e.g. re-registered after reschedule
    cmt.unregister(descriptor)
    assert cmt.active_on(0) == [] and cmt.active_on(1) == []


def test_move_rehomes():
    cmt = ConflictManagementTable(4)
    descriptor = _descriptor(1)
    cmt.register(0, descriptor)
    cmt.move(descriptor, 3)
    assert cmt.active_on(0) == []
    assert cmt.active_on(3) == [descriptor]
    assert descriptor.last_processor == 3


def test_multiple_descriptors_per_processor():
    """Running + suspended transactions can share a processor's list."""
    cmt = ConflictManagementTable(4)
    running = _descriptor(1)
    suspended = _descriptor(2)
    cmt.register(0, running)
    cmt.register(0, suspended)
    assert set(d.thread_id for d in cmt.active_on(0)) == {1, 2}
    assert len(cmt) == 2


def test_bounds_checked():
    cmt = ConflictManagementTable(2)
    with pytest.raises(ValueError):
        cmt.register(5, _descriptor(1))
    with pytest.raises(ValueError):
        cmt.active_on(-1)
    with pytest.raises(ValueError):
        ConflictManagementTable(0)


def test_all_descriptors_deduplicates():
    cmt = ConflictManagementTable(4)
    descriptor = _descriptor(1)
    cmt.register(0, descriptor)
    # Manually force a second listing (reschedule invariant).
    cmt._lists[1].append(descriptor)
    assert len(list(cmt.all_descriptors())) == 1


def test_membership_is_by_identity():
    """Two field-equal descriptors are two transactions, not one."""
    cmt = ConflictManagementTable(4)
    first = _descriptor(1)
    second = _descriptor(1)
    cmt.register(0, first)
    second.last_processor = 0  # now equal to ``first`` field by field
    assert first == second and first is not second
    cmt.register(0, second)
    assert len(cmt.active_on(0)) == 2
    cmt.unregister(first)
    remaining = cmt.active_on(0)
    assert len(remaining) == 1 and remaining[0] is second
