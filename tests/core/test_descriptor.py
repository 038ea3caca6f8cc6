"""Transaction descriptors and status words."""

import pytest

from repro.core.descriptor import ConflictMode, RunState, TransactionDescriptor
from repro.core.tsw import TxStatus, decode_status


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
