"""Shared STM plumbing: ownership-record tables and per-thread state.

The word-based STMs (TL-2, and our RSTM model, which treats one cache
line as one object) hash data addresses onto a table of *ownership
records* (orecs) living in simulated memory, so metadata traffic pays
real cache/coherence costs — the indirection the paper blames for the
2x cache-miss inflation in Delaunay.

An orec word encodes ``version << 1 | locked``; versions come from a
global clock word (TL-2) or per-orec counters (RSTM model).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.core.machine import FlexTMMachine, WORD_BYTES


def encode_locked(owner: int) -> int:
    """Lock word value for a held orec (owner id in the upper bits)."""
    return (owner << 1) | 1


def is_locked(word: int) -> bool:
    return bool(word & 1)


def version_of(word: int) -> int:
    return word >> 1


def encode_version(version: int) -> int:
    return version << 1


class LockTable:
    """A table of orecs in simulated memory, hashed by line address."""

    def __init__(self, machine: FlexTMMachine, num_orecs: int = 16384):
        if num_orecs <= 0 or num_orecs & (num_orecs - 1):
            raise ValueError("num_orecs must be a positive power of two")
        self.machine = machine
        self.num_orecs = num_orecs
        self.base = machine.allocate_words(num_orecs, line_aligned=True)
        self._offset_bits = machine.params.offset_bits
        # Metadata tables count as warmed-up state (see warm_region).
        machine.warm_region(self.base, num_orecs * WORD_BYTES)

    def orec_address(self, data_address: int) -> int:
        """Orec word guarding a data address (line granularity)."""
        line = data_address >> self._offset_bits
        # Multiplicative hash spreads neighbouring lines across orecs.
        index = (line * 2654435761) & (self.num_orecs - 1)
        return self.base + index * WORD_BYTES


@dataclasses.dataclass
class StmThreadState:
    """TL-2's per-thread record, ``thread.tm``; ``reset`` starts an attempt."""

    read_version: int = 0
    #: (orec_address, observed_version) pairs, in open order.
    read_set: List[Tuple[int, int]] = dataclasses.field(default_factory=list)
    #: address -> buffered value (redo log).
    write_map: Dict[int, int] = dataclasses.field(default_factory=dict)
    #: orec addresses covering the write set, deduplicated, in order.
    write_orecs: List[int] = dataclasses.field(default_factory=list)

    def reset(self) -> None:
        self.read_set = []
        self.write_map = {}
        self.write_orecs = []

    def note_write_orec(self, orec_address: int) -> bool:
        """Record an orec for the write set; True if newly added."""
        if orec_address in self.write_orecs:
            return False
        self.write_orecs.append(orec_address)
        return True
