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
    """Stable L1 line states of the TMESI protocol."""

    I = "I"
    S = "S"
    E = "E"
    M = "M"
    TMI = "TMI"
    TI = "TI"

    @property
    def encoding(self) -> tuple[int, int, int]:
        """(M bit, V bit, T bit) hardware encoding from Figure 1."""
        return spec.ENCODINGS[self.name]

    @property
    def is_valid(self) -> bool:
        """Line holds usable data (everything except I)."""
        return self is not LineState.I

    @property
    def is_transactional(self) -> bool:
        """T bit set (TMI or TI)."""
        return self in (LineState.TMI, LineState.TI)

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
