"""Conflict Summary Tables (Section 3.2).

Each processor has three CSTs — **R-W**, **W-R** and **W-W** — each one
bit per *other* processor.  A set bit says a local read (R) or write (W)
has conflicted with a remote read/write on that processor.  Because
conflicts are summarized per-processor rather than per-line, a lazy
transaction can find everyone it must abort by reading two registers —
no global arbitration, token, or write-set broadcast.

The registers support the ``copy-and-clear`` atomic used at line 1 of
the Commit() routine (Figure 3), similar to SPARC's ``clruw``.
"""

from __future__ import annotations

from typing import List

from repro.coherence.directory import set_bits


class CstRegister:
    """One full-map bit-vector conflict register."""

    __slots__ = ("name", "width", "_bits")

    def __init__(self, name: str, width: int):
        if width < 1:
            raise ValueError("CST width must be >= 1")
        self.name = name
        self.width = width
        self._bits = 0

    def set(self, processor: int) -> None:
        self._check(processor)
        self._bits |= 1 << processor

    def clear_bit(self, processor: int) -> None:
        self._check(processor)
        self._bits &= ~(1 << processor)

    def test(self, processor: int) -> bool:
        self._check(processor)
        return bool((self._bits >> processor) & 1)

    def copy_and_clear(self) -> int:
        """Atomically read the register and zero it (``clruw`` analogue)."""
        value, self._bits = self._bits, 0
        return value

    def clear(self) -> None:
        """Zero the register.  ``FlexTMProcessor._clear_registers`` stores
        ``_bits`` inline; docs/PROTOCOL.md §7 lists the copy."""
        self._bits = 0

    @property
    def value(self) -> int:
        return self._bits

    @value.setter
    def value(self, bits: int) -> None:
        if bits < 0 or bits >= (1 << self.width):
            raise ValueError(f"bitmask out of range for width {self.width}")
        self._bits = bits

    @property
    def is_empty(self) -> bool:
        return self._bits == 0

    @property
    def popcount(self) -> int:
        return self._bits.bit_count()

    def processors(self) -> List[int]:
        """Indices of set bits, ascending."""
        return set_bits(self._bits)

    def _check(self, processor: int) -> None:
        if not 0 <= processor < self.width:
            raise ValueError(f"processor {processor} out of range [0, {self.width})")

    def __repr__(self) -> str:
        return f"CstRegister({self.name}={self._bits:0{self.width}b})"


class ConflictSummaryTables:
    """The per-processor trio of CST registers."""

    def __init__(self, num_processors: int):
        self.num_processors = num_processors
        self.r_w = CstRegister("R-W", num_processors)
        self.w_r = CstRegister("W-R", num_processors)
        self.w_w = CstRegister("W-W", num_processors)

    def clear(self) -> None:
        self.r_w.clear()
        self.w_r.clear()
        self.w_w.clear()

    @property
    def is_empty(self) -> bool:
        return self.r_w.is_empty and self.w_r.is_empty and self.w_w.is_empty

    @property
    def must_abort_mask(self) -> int:
        """W-R | W-W — processors a committer must abort (Figure 3)."""
        return self.w_r.value | self.w_w.value

    def enemies(self) -> List[int]:
        """Processors in W-R | W-W, ascending."""
        return set_bits(self.must_abort_mask)

    def conflict_degree(self) -> int:
        """Distinct conflicting processors across all three tables.

        This is the statistic reported in the Figure 4 conflict table.
        """
        union = self.r_w._bits | self.w_r._bits | self.w_w._bits
        return union.bit_count()

    def save(self) -> dict:
        """Snapshot for context-switch spill (Section 5)."""
        return {"r_w": self.r_w.value, "w_r": self.w_r.value, "w_w": self.w_w.value}

    def restore(self, saved: dict) -> None:
        self.r_w.value = saved["r_w"]
        self.w_r.value = saved["w_r"]
        self.w_w.value = saved["w_w"]

    def __repr__(self) -> str:
        return (
            f"CSTs(R-W={self.r_w.value:b}, W-R={self.w_r.value:b}, "
            f"W-W={self.w_w.value:b})"
        )
