"""The 32-entry L1 victim buffer (Table 3a).

Holds recently evicted lines; a hit refills the L1 at near-L1 latency
instead of paying the L2 round trip.  The overflow study (Section 7.3)
also uses an *unbounded* victim buffer to approximate an ideal machine
in which TMI lines never overflow — ``capacity=None`` models that.

Like the cache array, the buffer keeps the addresses of its T-state
(TMI/TI) entries apart, so a flash visits only those entries.
"""

from __future__ import annotations

import collections
from typing import Callable, Dict, Optional

from repro.coherence.states import LineState

_I = LineState.I


class VictimBuffer:
    """Small fully-associative FIFO of evicted lines."""

    def __init__(self, capacity: Optional[int] = 32):
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0 or None for unbounded")
        self.capacity = capacity
        self._entries: "collections.OrderedDict[int, LineState]" = collections.OrderedDict()
        #: The addresses of the TMI/TI entries (a dict for its order).
        self._transactional: Dict[int, None] = {}

    def _track(self, line_address: int, state: LineState) -> None:
        if state.is_transactional:
            self._transactional[line_address] = None
        else:
            self._transactional.pop(line_address, None)

    def insert(self, line_address: int, state: LineState) -> None:
        """Add an evicted line, displacing the oldest entry when full."""
        if state is _I:
            return
        if line_address in self._entries:
            self._entries.move_to_end(line_address)
            self._entries[line_address] = state
            self._track(line_address, state)
            return
        if self.capacity == 0:
            return
        if self.capacity is not None and len(self._entries) >= self.capacity:
            displaced, _ = self._entries.popitem(last=False)
            self._transactional.pop(displaced, None)
        self._entries[line_address] = state
        self._track(line_address, state)

    def extract(self, line_address: int) -> Optional[LineState]:
        """Remove and return a line's state on a hit, else None."""
        self._transactional.pop(line_address, None)
        return self._entries.pop(line_address, None)

    def contains(self, line_address: int) -> bool:
        return line_address in self._entries

    def invalidate(self, line_address: int) -> None:
        self._entries.pop(line_address, None)
        self._transactional.pop(line_address, None)

    def clear(self) -> None:
        self._entries.clear()
        self._transactional.clear()

    def flash_transform(self, transform: Callable[[LineState], LineState]) -> None:
        """Apply a flash transform to the T-state entries only.

        Entries the transform leaves in I are dropped; the others keep
        their FIFO position.
        """
        for line_address in list(self._transactional):
            state = transform(self._entries[line_address])
            if state is _I:
                self.invalidate(line_address)
            else:
                self._entries[line_address] = state
                self._track(line_address, state)

    def __len__(self) -> int:
        return len(self._entries)
