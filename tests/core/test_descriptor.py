"""Transaction descriptors and status words."""

import pytest

from repro.core.descriptor import (
    ConflictMode,
    RunState,
    SavedHardwareState,
    TransactionDescriptor,
)
from repro.core.tsw import TxStatus, decode_status
from repro.signatures.bloom import Signature


def _saved(read_lines=(), write_lines=()):
    rsig = Signature(256, 2)
    wsig = Signature(256, 2)
    rsig.insert_all(read_lines)
    wsig.insert_all(write_lines)
    return SavedHardwareState(
        overlay={}, ot_registers=None, rsig=rsig, wsig=wsig,
        csts={"r_w": 0, "w_r": 0, "w_w": 0}, last_processor=1,
    )


def test_status_decoding():
    assert decode_status(1) is TxStatus.ACTIVE
    assert decode_status(2) is TxStatus.COMMITTED
    assert decode_status(3) is TxStatus.ABORTED
    assert decode_status(999) is TxStatus.INVALID


def _enum_decode(word):
    """The Enum-constructor definition the table lookup must match."""
    try:
        return TxStatus(word)
    except ValueError:
        return TxStatus.INVALID


class _Opaque:
    def __repr__(self):
        return "opaque"


@pytest.mark.parametrize(
    "word",
    [*range(-2, 11), *TxStatus, "ACTIVE", None, 1.5, _Opaque()],
    ids=lambda word: word.name if isinstance(word, TxStatus) else repr(word),
)
def test_status_table_matches_the_enum_constructor(word):
    # Memory holds plain ints and the TxStatus members that
    # ("store", tsw, TxStatus.ACTIVE) writes; anything else is INVALID.
    assert decode_status(word) is _enum_decode(word)


def test_terminal_states():
    assert TxStatus.COMMITTED.is_terminal
    assert TxStatus.ABORTED.is_terminal
    assert not TxStatus.ACTIVE.is_terminal


def test_descriptor_defaults():
    descriptor = TransactionDescriptor(thread_id=1, tsw_address=64)
    assert descriptor.mode is ConflictMode.LAZY
    assert descriptor.run_state is RunState.RUNNING
    assert descriptor.saved is None
    assert descriptor.commits == 0


def test_conflicts_with_uses_saved_signatures():
    descriptor = TransactionDescriptor(thread_id=1, tsw_address=64)
    assert not descriptor.conflicts_with(10, is_write=True)  # no saved state
    descriptor.saved = _saved(read_lines=[10], write_lines=[20])
    assert descriptor.conflicts_with(20, is_write=False)  # their write vs read
    assert descriptor.conflicts_with(10, is_write=True)  # their read vs write
    assert not descriptor.conflicts_with(10, is_write=False)  # read vs read


def test_record_suspended_conflict_updates_saved_csts():
    descriptor = TransactionDescriptor(thread_id=1, tsw_address=64)
    descriptor.saved = _saved(write_lines=[20])
    descriptor.record_suspended_conflict(3, local_was_write=True, remote_is_write=False)
    assert descriptor.saved.csts["w_r"] == 1 << 3
    descriptor.record_suspended_conflict(5, local_was_write=True, remote_is_write=True)
    assert descriptor.saved.csts["w_w"] == 1 << 5
    descriptor.record_suspended_conflict(2, local_was_write=False, remote_is_write=True)
    assert descriptor.saved.csts["r_w"] == 1 << 2


def test_record_conflict_without_saved_state_rejected():
    descriptor = TransactionDescriptor(thread_id=1, tsw_address=64)
    with pytest.raises(ValueError):
        descriptor.record_suspended_conflict(0, True, True)
