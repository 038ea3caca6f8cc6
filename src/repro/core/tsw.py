"""Transaction status words.

The TSW is an ordinary word in (simulated) memory whose value encodes a
transaction's fate.  Everything interesting about it is protocol, not
data structure: it is ALoaded by its owner so any remote write delivers
an immediate alert, it is the target of the CAS that enemies use to
abort a transaction, and it is the target of the owner's CAS-Commit.
Conventional cache coherence on the TSW line serializes the commit/abort
race (Section 3.6).
"""

from __future__ import annotations

import enum


class TxStatus(enum.IntEnum):
    """Values stored in a transaction status word."""

    INVALID = 0
    ACTIVE = 1
    COMMITTED = 2
    ABORTED = 3
    COMMITTING = 4

    @property
    def is_terminal(self) -> bool:
        return self in (TxStatus.COMMITTED, TxStatus.ABORTED)


_BY_WORD = {status.value: status for status in TxStatus}


def decode_status(word: int) -> TxStatus:
    """Interpret a raw memory word as a status (unknown -> INVALID)."""
    return _BY_WORD.get(word, TxStatus.INVALID)
