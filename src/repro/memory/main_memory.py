"""Functional memory image.

The protocol layers are state-accurate; actual data values live here so
that workloads (and the versioning tests that check redo-log semantics)
can verify that committed values become visible and aborted values do
not.  Values are per-*word* (we use the byte address as the word key);
a line's worth of words moves on line fills and write-backs, but since
the image is flat we only need per-word reads/writes plus the notion of
a speculative overlay maintained by the versioning layer.
"""

from __future__ import annotations

from typing import Dict


class MainMemory:
    """Flat word-addressable backing store with a default value of 0."""

    def __init__(self):
        #: address -> word; an absent word reads 0.  The machine's load
        #: paths and the FlexTM abort poll call ``words.get(address, 0)``
        #: rather than :meth:`read`.
        self.words: Dict[int, int] = {}

    def read(self, address: int) -> int:
        return self.words.get(address, 0)

    def write(self, address: int, value: int) -> None:
        self.words[address] = value

    def snapshot(self) -> Dict[int, int]:
        """Copy of all non-default words (test/debug aid)."""
        return dict(self.words)

    def __len__(self) -> int:
        return len(self.words)
