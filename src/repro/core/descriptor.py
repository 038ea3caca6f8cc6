"""Software transaction descriptors (Table 1).

Every FlexTM transaction is represented by a descriptor holding the
transaction status word (TSW) address, the eager/lazy mode flag, the
handler entry points, and — when the transaction is suspended — the
saved hardware state (signatures, CSTs, OT registers, buffered TMI
values).  Descriptors live in ordinary (simulated) virtual memory and
are reachable through the OS's Conflict Management Table.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

from repro.signatures.bloom import Signature


class ConflictMode(enum.Enum):
    """The E/L bit of Table 1."""

    EAGER = "eager"
    LAZY = "lazy"


class RunState(enum.Enum):
    """The State field of Table 1."""

    RUNNING = "running"
    SUSPENDED = "suspended"


@dataclasses.dataclass
class SavedHardwareState:
    """Hardware context spilled to memory on a context switch (§5).

    Saved in the order the paper prescribes: TMI lines (the speculative
    value overlay), OT registers, signatures, then CSTs.
    """

    overlay: Dict[int, int]
    ot_registers: Optional[dict]
    rsig: Signature
    wsig: Signature
    csts: dict
    last_processor: int


@dataclasses.dataclass
class TransactionDescriptor:
    """One transaction's software-visible identity and state."""

    thread_id: int
    tsw_address: int
    mode: ConflictMode = ConflictMode.LAZY
    run_state: RunState = RunState.RUNNING
    #: AbortPC / CMPC analogues: the runtime stores callables rather
    #: than code addresses.
    abort_handler: Optional[object] = None
    conflict_manager: Optional[object] = None
    #: Saved hardware state while suspended (None when running).
    saved: Optional[SavedHardwareState] = None
    #: Processor the transaction last ran on (CMT indexing invariant).
    last_processor: int = -1
    #: Monotonic incarnation number (bumped on every restart); lets the
    #: runtime discard alerts that raced with a restart.
    incarnation: int = 0
    #: Accesses performed by the current attempt (Polka's "karma").
    accesses: int = 0
    #: Statistics for the harnesses.
    commits: int = 0
    aborts: int = 0
    #: Abort attribution: who wounded this attempt and why.  Set by the
    #: machine at TSW-write time, consumed (and reset) by the runtime
    #: when it raises/handles TransactionAborted.
    wounded_by: int = -1
    wound_kind: str = ""
    #: Wounds this transaction has inflicted on others (watchdog input).
    wounds_inflicted: int = 0
