"""Coherence request/response vocabulary (Section 3.3).

Requestors issue three request types:

* ``GETS``  — read miss (Load or TLoad): wants a sharable copy.
* ``GETX``  — ordinary write miss/upgrade (Store): wants exclusivity.
* ``TGETX`` — transactional store miss/upgrade (TStore): wants a copy
  that may be speculatively updated; registers the requestor as one of
  possibly *many* owners at the directory.

Responders consult their signatures (Figure 1's response table):

=========  ================  ================
Request    hit in Wsig       hit in Rsig only
=========  ================  ================
GETX       Threatened        Invalidated
TGETX      Threatened        Exposed-Read
GETS       Threatened        Shared
=========  ================  ================

``Threatened`` signals a write conflict, ``Exposed-Read`` a read
conflict; both cause the responder and (on receipt) the requestor to set
the corresponding CST bits.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence, Tuple

from repro.coherence import spec


class AccessKind(enum.Enum):
    """Processor-side memory operations.

    Like every protocol enum, members hash by identity (in C) and carry
    their predicates as attributes read once from the spec.
    """

    LOAD = "Load"
    STORE = "Store"
    TLOAD = "TLoad"
    TSTORE = "TStore"

    __hash__ = object.__hash__

    #: TLoad or TStore.
    is_transactional: bool
    #: Store or TStore.
    is_write: bool

    def __init__(self, value: str) -> None:
        self.is_transactional = value in spec.ACCESS_PREDICATES["is_transactional"]
        self.is_write = value in spec.ACCESS_PREDICATES["is_write"]


class RequestType(enum.Enum):
    """Messages from an L1 to the directory."""

    GETS = "GETS"
    GETX = "GETX"
    TGETX = "TGETX"

    __hash__ = object.__hash__

    #: GETX/TGETX — the 'X' set in Figure 1.
    is_exclusive: bool

    def __init__(self, value: str) -> None:
        self.is_exclusive = value in spec.REQUEST_PREDICATES["is_exclusive"]


class ResponseKind(enum.Enum):
    """Signature-qualified responses from a remote L1."""

    SHARED = "Shared"
    INVALIDATED = "Invalidated"
    THREATENED = "Threatened"
    EXPOSED_READ = "Exposed-Read"

    __hash__ = object.__hash__

    #: True for responses produced by a signature hit.  ``INVALIDATED``
    #: is included: it is only generated when a non-transactional GETX
    #: hits a responder's Rsig (plain MESI invalidations return no
    #: signature response at all), and strong isolation requires the
    #: requestor to abort that responder.
    signals_conflict: bool

    def __init__(self, value: str) -> None:
        self.signals_conflict = value in spec.CONFLICT_RESPONSES


@dataclasses.dataclass
class AccessResult:
    """Outcome of one processor memory operation.

    Attributes:
        cycles: latency charged to the requesting core.
        conflicts: (responder_processor, ResponseKind) pairs for every
            conflicting response; empty when the access was clean.  A
            hit's is the immutable ``()``.
        state: resulting local L1 state of the line.
        hit: True when the access was satisfied without a directory
            request.
        threatened_uncached: True when a non-transactional load observed
            a Threatened response and therefore left the line uncached
            (strong-isolation read path, Section 3.5).
        nacked: True when the access was refused (committed-OT copy-back
            in flight) and must be retried by the issuer.
    """

    cycles: int = 0
    conflicts: Sequence[Tuple[int, ResponseKind]] = dataclasses.field(default_factory=list)
    state: "object" = None
    hit: bool = False
    threatened_uncached: bool = False
    nacked: bool = False

    @property
    def conflicted(self) -> bool:
        return bool(self.conflicts)
