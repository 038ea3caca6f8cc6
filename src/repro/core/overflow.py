"""Per-thread overflow tables and the OT controller (Section 4.1).

TMI lines evicted from the L1 cannot merge into the shared cache (their
values are speculative), so they spill into a thread-private, set-
associative **overflow table** organized in virtual memory.  A small
hardware controller performs fast lookups on L1 misses (software stays
oblivious to overflowed lines), tracks an overflow signature ``Osig``
and a count, and at commit time drains the table back to the lines'
natural locations — in any order, unlike time-ordered undo logs — while
NACKing remote requests that hit the committed ``Osig``.

On aborts the table is simply returned to the OS.  Way overflow traps to
the OS, which expands the table.  Tags carry both the physical address
(associative lookup) and the logical address (paging support: copy-back
can fault in a non-resident page, Section 4.1 "Virtual Memory Paging").
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import OverflowTableError
from repro.signatures.bloom import Signature


@dataclasses.dataclass
class OverflowEntry:
    """One spilled TMI line."""

    physical_line: int
    logical_line: int


class OverflowTable:
    """The in-memory, set-associative spill structure."""

    def __init__(self, num_sets: int, associativity: int, base_address: int = 0):
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise OverflowTableError("OT num_sets must be a positive power of two")
        if associativity < 1:
            raise OverflowTableError("OT associativity must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self.base_address = base_address
        self._sets: List[Dict[int, OverflowEntry]] = [{} for _ in range(num_sets)]
        self.expansions = 0

    def _set_index(self, physical_line: int) -> int:
        return physical_line & (self.num_sets - 1)

    def insert(self, physical_line: int, logical_line: Optional[int] = None) -> bool:
        """Add a line; returns False when the set is full (OS must expand)."""
        target = self._sets[self._set_index(physical_line)]
        if physical_line in target:
            return True
        if len(target) >= self.associativity:
            return False
        target[physical_line] = OverflowEntry(
            physical_line=physical_line,
            logical_line=physical_line if logical_line is None else logical_line,
        )
        return True

    def lookup(self, physical_line: int) -> Optional[OverflowEntry]:
        return self._sets[self._set_index(physical_line)].get(physical_line)

    def extract(self, physical_line: int) -> Optional[OverflowEntry]:
        """Remove and return an entry (L1 refill invalidates the OT copy)."""
        return self._sets[self._set_index(physical_line)].pop(physical_line, None)

    def expand(self) -> "OverflowTable":
        """Grow to 2x the sets, rehashing entries (OS trap path)."""
        grown = OverflowTable(self.num_sets * 2, self.associativity, self.base_address)
        grown.expansions = self.expansions + 1
        for entry in self.entries():
            if not grown.insert(entry.physical_line, entry.logical_line):
                raise OverflowTableError("expansion failed to place an entry")
        return grown

    def entries(self) -> List[OverflowEntry]:
        out: List[OverflowEntry] = []
        for table_set in self._sets:
            out.extend(table_set.values())
        return out

    def retag(self, old_physical: int, new_physical: int) -> bool:
        """Update an entry's physical tag after an OS page re-mapping."""
        entry = self.extract(old_physical)
        if entry is None:
            return False
        entry.physical_line = new_physical
        if not self.insert(new_physical, entry.logical_line):
            raise OverflowTableError("retag target set is full")
        return True

    def __len__(self) -> int:
        return sum(len(table_set) for table_set in self._sets)


class OverflowController:
    """The L1-side OT registers and FSM (Figure 2).

    Registers: thread id, ``Osig``, overflow count, committed/speculative
    flag, and the table base/shape parameters.  The controller is filled
    by a software trap on the first overflow of a transaction and
    cleared when the OT is torn down.
    """

    def __init__(
        self,
        signature_bits: int = 2048,
        num_hashes: int = 4,
        default_sets: int = 64,
        associativity: int = 8,
    ):
        self._signature_bits = signature_bits
        self._num_hashes = num_hashes
        self._default_sets = default_sets
        self._associativity = associativity
        self.thread_id: Optional[int] = None
        self.table: Optional[OverflowTable] = None
        self.osig = Signature(signature_bits, num_hashes)
        self.count = 0
        self.committed = False
        #: Called after ``committed`` flips (installed by FlexTMMachine,
        #: which keeps the list of controllers it must ask for NACKs).
        self.on_committed_change: Optional[Callable[[], None]] = None
        #: absolute cycle at which an in-flight copy-back finishes; the
        #: directory NACKs remote requests that hit the committed Osig
        #: before this time.
        self.copyback_until = 0
        self.mapped = True  # False when the OS swapped the OT out
        #: Fault injection (installed by FlexTMMachine.attach).
        self.chaos = None
        self.failed_walks = 0

    @property
    def active(self) -> bool:
        return self.table is not None

    def walk_penalty(self, physical_line: int, cycles_per_walk: int) -> int:
        """Extra latency when chaos fails OT walk passes (FSM retries).

        A failed walk is re-issued by the controller, so the fault is
        pure latency — the entry is never lost.
        """
        if self.chaos is None or not self.chaos.enabled:
            return 0
        extra = 0
        retries = 0
        while retries < 3 and self.chaos.ot_walk_failed(physical_line):
            retries += 1
            self.failed_walks += 1
            extra += cycles_per_walk
        return extra

    def allocate(self, thread_id: int) -> None:
        """First-overflow trap: the OS allocates an OT and fills registers."""
        if self.active:
            raise OverflowTableError("controller already has a table")
        self.thread_id = thread_id
        self.table = OverflowTable(self._default_sets, self._associativity)
        self.osig = Signature(self._signature_bits, self._num_hashes)
        self.count = 0
        self._set_committed(False)
        self.mapped = True

    def _set_committed(self, committed: bool) -> None:
        if committed != self.committed:
            self.committed = committed
            if self.on_committed_change is not None:
                self.on_committed_change()

    def spill(self, physical_line: int) -> None:
        """Evicted TMI line -> OT (expanding on way overflow)."""
        if not self.active:
            raise OverflowTableError("spill with no allocated table")
        if not self.mapped:
            # Hardware trap: OS re-establishes the mapping (Section 4.1).
            self.mapped = True
        assert self.table is not None
        while not self.table.insert(physical_line):
            self.table = self.table.expand()
        self.osig.insert(physical_line)
        self.count += 1

    def lookup(self, physical_line: int) -> bool:
        """Osig-filtered membership check used on every L1 miss."""
        if not self.active or self.count == 0:
            return False
        if not self.osig.member(physical_line):
            return False
        return self.table.lookup(physical_line) is not None

    def extract(self, physical_line: int) -> bool:
        """Refill path: pull the line back into the L1, invalidate OT copy."""
        if not self.active:
            return False
        entry = self.table.extract(physical_line)
        if entry is not None:
            self.count -= 1
            return True
        return False

    def begin_copyback(self, now: int, cycles_per_line: int) -> int:
        """CAS-Commit sets the Committed bit and starts the drain.

        Returns the cycle at which copy-back completes.  The drain runs
        on the controller, overlapping the processor's subsequent work.
        """
        if not self.active:
            return now
        self._set_committed(True)
        self.copyback_until = now + len(self.table) * cycles_per_line
        return self.copyback_until

    def nacks(self, physical_line: int, now: int) -> bool:
        """Should a remote request for this line be NACKed right now?"""
        if not self.committed or now >= self.copyback_until:
            return False
        return self.osig.member(physical_line)

    def committed_lines(self) -> List[Tuple[int, int]]:
        """(physical, logical) pairs to drain at commit."""
        if not self.active:
            return []
        return [(e.physical_line, e.logical_line) for e in self.table.entries()]

    def release(self) -> None:
        """Return the OT to the OS (abort, or copy-back complete)."""
        self.thread_id = None
        self.table = None
        self.osig = Signature(self._signature_bits, self._num_hashes)
        self.count = 0
        self._set_committed(False)
        self.copyback_until = 0
        self.mapped = True

    def save(self) -> dict:
        """Context-switch spill of the controller registers."""
        return {
            "thread_id": self.thread_id,
            "table": self.table,
            "osig": self.osig.copy(),
            "count": self.count,
            "committed": self.committed,
            "copyback_until": self.copyback_until,
        }

    def restore(self, saved: dict) -> None:
        self.thread_id = saved["thread_id"]
        self.table = saved["table"]
        self.osig = saved["osig"].copy()
        self.count = saved["count"]
        self.copyback_until = saved["copyback_until"]
        self._set_committed(saved["committed"])
        self.mapped = True
