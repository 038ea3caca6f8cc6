"""A set-associative cache array with LRU replacement.

The array stores :class:`CacheLine` records carrying the coherence state
bits of Figure 2: the MESI state is encoded by the protocol layer, the
``T`` bit (transactional: TMI or TI) is part of that encoding (Figure 1),
and the ``A`` (alert-on-update mark) bit lives here.

The flash hardware clears every T bit in one cycle.  A simulator that
finds those lines by scanning the whole array pays host time for every
valid line on every commit, so the array also keeps an index of its
T-state lines.  A line's ``state`` setter maintains the index, and
:meth:`CacheArray.flash_transform` visits only the indexed lines: its
host cost is proportional to the transaction's footprint, not to the
array's size.  The simulated cost of a flash is unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.coherence.states import LineState
from repro.errors import ProtocolError

_I = LineState.I
_TMI = LineState.TMI
_TI = LineState.TI


class CacheLine:
    """One L1 line: tag + coherence and FlexTM state bits.

    Assigning ``state`` keeps the owning array's T-state index current,
    so every state change, construction included, goes through the
    setter.
    """

    __slots__ = ("line_address", "_state", "a_bit", "last_use", "_t_index")

    def __init__(
        self,
        line_address: int,
        state: LineState,
        last_use: int,
        t_index: Dict[int, "CacheLine"],
    ):
        self.line_address = line_address
        #: A marks alert-on-update lines (Figure 2).
        self.a_bit = False
        #: Monotonic timestamp for LRU.
        self.last_use = last_use
        #: The owning array's T-state index, kept current by ``state``.
        self._t_index = t_index
        self.state = state

    @property
    def state(self) -> LineState:
        return self._state

    @state.setter
    def state(self, state: LineState) -> None:
        self._state = state
        if state is _TMI or state is _TI:
            self._t_index[self.line_address] = self
        else:
            self._t_index.pop(self.line_address, None)

    @property
    def t_bit(self) -> bool:
        """The T bit of Figure 1's encoding: set exactly in TMI and TI."""
        return self._state.is_transactional

    def __repr__(self) -> str:
        flags = ("T" if self.t_bit else "") + ("A" if self.a_bit else "")
        return f"CacheLine(0x{self.line_address:x}, {self._state.name}{',' + flags if flags else ''})"


class CacheArray:
    """Tag/state array for a private cache.

    Data values are not stored here — the simulator is state-accurate,
    not value-accurate, at the cache level (values live in the
    functional memory image held by the machine).
    """

    def __init__(self, num_sets: int, associativity: int):
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a positive power of two")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(num_sets)]
        #: The lines in TMI or TI, by address (maintained by CacheLine.state).
        self._t_lines: Dict[int, CacheLine] = {}
        self._use_tick = 0

    def _set_for(self, line_address: int) -> Dict[int, CacheLine]:
        return self._sets[line_address & (self.num_sets - 1)]

    def set_index(self, line_address: int) -> int:
        return line_address & (self.num_sets - 1)

    def lookup(self, line_address: int) -> Optional[CacheLine]:
        """Find a valid line (state != I), updating LRU on hit."""
        line = self._sets[line_address & (self.num_sets - 1)].get(line_address)
        if line is None or line._state is _I:
            return None
        self._use_tick += 1
        line.last_use = self._use_tick
        return line

    def peek(self, line_address: int) -> Optional[CacheLine]:
        """Find a line without touching LRU state (snoops, asserts)."""
        line = self._sets[line_address & (self.num_sets - 1)].get(line_address)
        if line is None or line._state is _I:
            return None
        return line

    def choose_victim(self, line_address: int) -> Optional[CacheLine]:
        """LRU victim in ``line_address``'s set, or None if there is room.

        A set with fewer entries than ways has room whatever their
        states, so only a set with no free way is scanned.  The scan
        keeps the first valid line with the least ``last_use``.
        """
        cache_set = self._sets[line_address & (self.num_sets - 1)]
        if len(cache_set) < self.associativity:
            return None
        victim = None
        valid = 0
        for line in cache_set.values():
            if line._state is not _I:
                valid += 1
                if victim is None or line.last_use < victim.last_use:
                    victim = line
        return victim if valid >= self.associativity else None

    def install(self, line_address: int, state: LineState) -> CacheLine:
        """Place a line; the set must have room (caller evicts first).

        Only a set with no free way is counted for the full-set check.
        """
        cache_set = self._sets[line_address & (self.num_sets - 1)]
        existing = cache_set.get(line_address)
        if existing is not None and existing._state is not _I:
            raise ProtocolError(f"line 0x{line_address:x} already present as {existing.state.name}")
        if len(cache_set) >= self.associativity:
            valid = sum(1 for line in cache_set.values() if line._state is not _I)
            if valid >= self.associativity:
                raise ProtocolError(f"set for 0x{line_address:x} is full; evict first")
        self._use_tick += 1
        line = CacheLine(line_address, state, self._use_tick, self._t_lines)
        cache_set[line_address] = line
        return line

    def remove(self, line_address: int) -> None:
        """Drop a line entirely (post-eviction cleanup)."""
        self._set_for(line_address).pop(line_address, None)
        self._t_lines.pop(line_address, None)

    def valid_lines(self) -> Iterator[CacheLine]:
        """All lines whose state is not I."""
        for cache_set in self._sets:
            for line in cache_set.values():
                if line._state is not _I:
                    yield line

    def transactional_lines(self) -> List[CacheLine]:
        """The lines in TMI or TI (the T-bit index), oldest entry first."""
        return list(self._t_lines.values())

    def occupancy(self) -> int:
        return sum(1 for _ in self.valid_lines())

    def set_occupancy(self, line_address: int) -> int:
        cache_set = self._set_for(line_address)
        return sum(1 for line in cache_set.values() if line._state is not _I)

    def flash_transform(self, transform: Callable[[LineState], LineState]) -> int:
        """Apply a state transform to every T-state line; returns lines touched.

        Models the flash commit/abort hardware: a single-cycle sweep
        conditioned on the T bits.  Only the indexed T-state lines are
        visited (the transforms leave every other state unchanged), and
        lines the transform leaves in I are dropped.
        """
        lines = self.transactional_lines()
        for line in lines:
            line.state = transform(line._state)
            if line._state is _I:
                self._set_for(line.line_address).pop(line.line_address, None)
        return len(lines)
