"""Cache-line states: MESI plus the two PDI additions.

Figure 1's encoding table::

        M bit  V bit  T bit
    I     0      0      0
    S     0      1      0
    M     1      0      0
    E     1      1      0
    TMI   1      0      1
    TI    0      0      1

TMI is "M with the T bit" — a speculatively written line whose value
must not escape until commit; it reverts to M on commit and I on abort.
TI is "I with the T bit" — a transactional read of a line some remote
processor holds in TMI; the local copy is the *pre-speculative* value
and must revert to I on either commit or abort (the remote commit could
make it stale).

The encoding and the flash transforms are read from
:mod:`repro.coherence.spec`, the protocol's one description.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.coherence import spec


class LineState(enum.Enum):
    """Stable L1 line states of the TMESI protocol.

    Members hash by identity, in C: the protocol tables are keyed by
    members, and ``Enum.__hash__`` would run Python code per lookup.
    Equality is identity either way.  The encoding and predicates are
    per-member attributes, read once from the spec.
    """

    I = "I"
    S = "S"
    E = "E"
    M = "M"
    TMI = "TMI"
    TI = "TI"

    __hash__ = object.__hash__

    #: (M bit, V bit, T bit) hardware encoding from Figure 1.
    encoding: tuple[int, int, int]
    #: Line holds usable data (everything except I).
    is_valid: bool
    #: T bit set (TMI or TI).
    is_transactional: bool

    def __init__(self, value: str) -> None:
        self.encoding = spec.ENCODINGS[value]
        self.is_valid = value in spec.STATE_PREDICATES["is_valid"]
        self.is_transactional = value in spec.STATE_PREDICATES["is_transactional"]

    def after_commit(self) -> LineState:
        """Flash-commit transform (Figure 3): TMI -> M, TI -> I."""
        return COMMIT_TRANSFORM[self]

    def after_abort(self) -> LineState:
        """Flash-abort transform (Figure 3): TMI -> I, TI -> I."""
        return ABORT_TRANSFORM[self]


#: ``spec.COMMIT_TRANSFORM`` / ``spec.ABORT_TRANSFORM``, compiled.
COMMIT_TRANSFORM: Dict[LineState, LineState] = {
    LineState(state): LineState(target) for state, target in spec.COMMIT_TRANSFORM.items()
}
ABORT_TRANSFORM: Dict[LineState, LineState] = {
    LineState(state): LineState(target) for state, target in spec.ABORT_TRANSFORM.items()
}
