"""The banked Bloom-filter signature register (Rsig / Wsig / Osig).

Matches the paper's hardware: 2048 bits, 4 banks, one hash per bank,
flash-clearable, and fully software-visible (it can be saved, restored
and unioned by the OS for context-switch virtualization, Section 5).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.signatures.hashing import HashFamily, make_hash_family


class Signature:
    """A conservative set-of-addresses summary.

    Address granularity is the caller's business — FlexTM inserts
    *line* addresses (physical address >> offset bits).

    The register is one int, :attr:`word`, the software-visible value:
    bank *b* holds bits ``[b*W, (b+1)*W)`` with ``W = bits // num_hashes``.
    An address selects one bit per bank (its family's memoized mask),
    so insert is an OR, member a masked compare and clear a store of 0.
    """

    def __init__(
        self,
        bits: int = 2048,
        num_hashes: int = 4,
        family: Optional[HashFamily] = None,
        seed: int = 0xF1E7,
    ):
        if bits < num_hashes:
            raise ValueError("signature must have at least one bit per bank")
        self.bits = bits
        self.num_hashes = num_hashes
        self._bank_bits = bits // num_hashes
        self._bind(family or make_hash_family(bits, num_hashes, seed=seed))
        self.word = 0
        #: True once bits inserted under a *different* hash family were
        #: unioned in.  Such bits cannot be probed exactly with this
        #: signature's hashes, so membership/intersection degrade to the
        #: fully conservative answer (see the resilience layer's hash
        #: rotation, docs/RESILIENCE.md).
        self._foreign = False

    def _bind(self, family: HashFamily) -> None:
        """Wire ``family`` to the banks; its shape must match the register's."""
        if len(family) != self.num_hashes or 1 << family.index_bits != self._bank_bits:
            raise ValueError(
                f"hash family ({len(family)} hashes x {1 << family.index_bits} bits) "
                f"does not fit a {self.bits}-bit, {self.num_hashes}-bank signature"
            )
        self._family = family
        # The family clears its memo in place, so this reference stays live.
        self._memo = family.mask_memo

    # -- Table 4(a) interface -------------------------------------------------

    def insert(self, address: int) -> None:
        """``insert [%r], Sig`` — add an address to the signature."""
        # A mask is never 0, so a memo miss (None) falls through to the family.
        self.word |= self._memo.get(address) or self._family.mask(address)

    def member(self, address: int) -> bool:
        """``member [%r], Sig`` — conservative membership test.

        True for every inserted address; may be true for others
        (false positives), never false for an inserted one.  A signature
        holding foreign-family bits answers True for everything while
        non-empty: its hashes cannot probe those bits exactly, and a
        false negative would be unsafe.
        """
        if self._foreign:
            return self.word != 0
        mask = self._memo.get(address) or self._family.mask(address)
        return self.word & mask == mask

    def read_hash(self, address: int) -> int:
        """``read-hash [%r]`` — concatenated per-bank indices."""
        value = 0
        for index in self._family.indices(address):
            value = (value << self._family.index_bits) | index
        return value

    def clear(self) -> None:
        """``clear Sig`` — flash-zero the register.

        ``FlexTMProcessor._clear_registers`` stores these fields inline;
        docs/PROTOCOL.md §7 lists the copy and the test that binds it.
        """
        self.word = 0
        self._foreign = False

    # -- software/OS-level operations -----------------------------------------

    def union(self, other: "Signature") -> None:
        """OR another signature into this one (summary-signature build).

        Unioning a signature built from a different hash family marks
        the result foreign: the merged bits are only meaningful to the
        family that produced them, so every later probe must answer
        conservatively.
        """
        if other.bits != self.bits or other.num_hashes != self.num_hashes:
            raise ValueError("cannot union signatures of different shapes")
        self.word |= other.word
        if other._foreign or (other._family is not self._family and other.word):
            self._foreign = True

    def intersects(self, other: "Signature") -> bool:
        """True when the two filters share a set bit in every bank.

        Conservative set-intersection test used when comparing a saved
        transaction signature against a request signature.  Signatures
        built from different hash families cannot be compared bank-wise;
        two non-empty filters then conservatively intersect.
        """
        if other.bits != self.bits or other.num_hashes != self.num_hashes:
            raise ValueError("cannot intersect signatures of different shapes")
        if self._foreign or other._foreign or self._family is not other._family:
            return bool(self.word and other.word)
        common = self.word & other.word
        return all(common & bank for bank in self._family.bank_masks)

    def insert_all(self, addresses: Iterable[int]) -> None:
        for address in addresses:
            self.insert(address)

    def copy(self) -> "Signature":
        """Snapshot (shares the immutable hash family)."""
        clone = Signature(self.bits, self.num_hashes, family=self._family)
        clone.word = self.word
        clone._foreign = self._foreign
        return clone

    @property
    def family(self) -> HashFamily:
        """The hash family currently wired to this register."""
        return self._family

    def rebind_family(self, family: HashFamily) -> None:
        """Swap the hash family; only legal while the register is clear.

        Models the resilience layer's hash-rotation escape hatch: the
        hardware can only re-wire the hash network between transactions,
        when no bits depend on the old family.
        """
        if self.word:
            raise ValueError("cannot rebind the hash family of a non-empty signature")
        self._bind(family)
        self._foreign = False

    @property
    def is_empty(self) -> bool:
        return not self.word

    @property
    def popcount(self) -> int:
        """Number of set bits across all banks."""
        return self.word.bit_count()

    def occupancy(self) -> float:
        """Fraction of bits set — a proxy for false-positive pressure."""
        return self.popcount / self.bits

    def bank_fills(self) -> list:
        """Per-bank fill fraction (set bits / bank width)."""
        word = self.word
        return [
            (word & bank).bit_count() / self._bank_bits for bank in self._family.bank_masks
        ]

    def false_positive_estimate(self) -> float:
        """Probability a never-inserted address tests positive.

        A probe hits one independent index per bank, so the estimate is
        the product of the per-bank fill fractions.  Exact for an
        idealised banked filter; a good sensor for the real one.
        """
        estimate = 1.0
        for fill in self.bank_fills():
            estimate *= fill
        return estimate

    def __repr__(self) -> str:
        return (
            f"Signature(bits={self.bits}, banks={self.num_hashes}, "
            f"popcount={self.popcount})"
        )
