"""Hash functions for Bloom-filter signatures.

Hardware signature proposals (Bulk, LogTM-SE, and the Sanchez et al.
study the paper cites) use families of cheap XOR-based hashes.  We
implement two:

* :class:`BitSelectHash` — selects a fixed slice of address bits; the
  cheapest option, and the one most prone to aliasing.
* :class:`H3Hash` — the classic H3 universal family: each output bit is
  the XOR of a random subset of input bits, realized as an AND with a
  per-bit mask followed by a parity reduction.

A :class:`HashFamily` bundles ``k`` independent hashes for a ``k``-banked
signature.
"""

from __future__ import annotations

import functools
from typing import Dict, Sequence, Tuple

from repro.sim.rng import DeterministicRng

#: Number of physical-address bits the hash hardware consumes.
ADDRESS_BITS = 40

#: Line-to-mask memo capacity; the memo is flash-cleared when it fills,
#: so memory stays bounded on adversarial address streams.
INDEX_CACHE_ENTRIES = 1 << 16


class BitSelectHash:
    """Hash that extracts ``index_bits`` address bits starting at ``shift``."""

    def __init__(self, index_bits: int, shift: int = 0):
        if index_bits < 1:
            raise ValueError("index_bits must be >= 1")
        if shift < 0:
            raise ValueError("shift must be >= 0")
        self._mask = (1 << index_bits) - 1
        self._shift = shift
        self.index_bits = index_bits

    def __call__(self, address: int) -> int:
        return (address >> self._shift) & self._mask


class H3Hash:
    """One member of the H3 universal hash family.

    ``masks[i]`` selects the input bits XORed together to produce output
    bit ``i``: the parity of ``address & masks[i]``, read off its
    popcount (``int.bit_count`` runs in C).
    """

    def __init__(self, masks: Sequence[int]):
        if not masks:
            raise ValueError("H3Hash needs at least one mask")
        self._masks = tuple(masks)
        self.index_bits = len(masks)

    def __call__(self, address: int) -> int:
        result = 0
        for bit, mask in enumerate(self._masks):
            if (address & mask).bit_count() & 1:
                result |= 1 << bit
        return result

    @classmethod
    def random(cls, index_bits: int, rng: DeterministicRng) -> "H3Hash":
        """Draw a random H3 member over :data:`ADDRESS_BITS` input bits."""
        masks = [rng.randint(1, (1 << ADDRESS_BITS) - 1) for _ in range(index_bits)]
        return cls(masks)


class HashFamily:
    """``k`` independent hashes feeding the banks of one signature.

    A ``k``-banked signature register is one word: bank *b* holds bits
    ``[b*W, (b+1)*W)`` with ``W = 1 << index_bits``.  Every insert and
    probe needs the word's *mask* for an address, one bit per bank, and
    the H3 parity reductions behind it dominate the cost.  The hashes
    are pure functions of the address, so the family memoizes
    line → mask in :attr:`mask_memo` — a transaction re-touching a hot
    line (or a processor re-probing it for every forwarded request)
    pays for the hashes once.  The memo is flash-cleared *in place*
    when it reaches ``cache_entries`` (signatures keep a reference to
    it); ``cache_entries=0`` disables it (the microbenchmark's
    baseline).
    """

    def __init__(self, hashes: Sequence, cache_entries: int = INDEX_CACHE_ENTRIES):
        if not hashes:
            raise ValueError("a hash family needs at least one hash")
        if cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        if len({hash_fn.index_bits for hash_fn in hashes}) != 1:
            raise ValueError("every hash in a family must have the same index_bits")
        self._hashes = tuple(hashes)
        self._cache_entries = cache_entries
        bank_bits = 1 << self.index_bits
        #: Line address → register mask (one set bit per bank).
        self.mask_memo: Dict[int, int] = {}
        #: Per-bank masks of the register word, bank 0 first.
        self.bank_masks: Tuple[int, ...] = tuple(
            ((1 << bank_bits) - 1) << (bank * bank_bits) for bank in range(len(self._hashes))
        )

    def __len__(self) -> int:
        return len(self._hashes)

    def indices(self, address: int) -> Tuple[int, ...]:
        """Bank-local bit indices selected by each hash for ``address``."""
        return tuple(hash_fn(address) for hash_fn in self._hashes)

    def mask(self, address: int) -> int:
        """Register bits ``address`` selects, never 0: bank *b*'s index *i* is bit ``b*W + i``."""
        memo = self.mask_memo
        mask = memo.get(address)
        if mask is None:
            bank_bits = 1 << self.index_bits
            mask = 0
            for bank, index in enumerate(self.indices(address)):
                mask |= 1 << (bank * bank_bits + index)
            if self._cache_entries:
                if len(memo) >= self._cache_entries:
                    memo.clear()
                memo[address] = mask
        return mask

    @property
    def index_bits(self) -> int:
        return self._hashes[0].index_bits


def make_hash_family(
    signature_bits: int,
    num_hashes: int,
    seed: int = 0xF1E7,
    kind: str = "h3",
) -> HashFamily:
    """Build (or reuse) the hash family for a banked signature.

    The signature is split into ``num_hashes`` equal banks, so each hash
    produces ``log2(signature_bits / num_hashes)`` index bits — the
    4-banked 2048-bit configuration of the paper yields 9 bits per bank.

    Construction is deterministic in its arguments, so same-shaped
    requests share one memoized family: every Rsig/Wsig/Osig on a
    machine (and across machines in one process) then shares a single
    line-to-mask memo instead of each re-deriving the same hashes.
    """
    return _shared_family(signature_bits, num_hashes, seed, kind)


@functools.lru_cache(maxsize=None)
def _shared_family(
    signature_bits: int, num_hashes: int, seed: int, kind: str
) -> HashFamily:
    if signature_bits % num_hashes != 0:
        raise ValueError("signature_bits must divide evenly into banks")
    bank_bits = signature_bits // num_hashes
    index_bits = bank_bits.bit_length() - 1
    if (1 << index_bits) != bank_bits:
        raise ValueError("bank size must be a power of two")
    if kind == "h3":
        rng = DeterministicRng(seed)
        return HashFamily([H3Hash.random(index_bits, rng) for _ in range(num_hashes)])
    if kind == "bit-select":
        return HashFamily(
            [BitSelectHash(index_bits, shift=i * index_bits) for i in range(num_hashes)]
        )
    raise ValueError(f"unknown hash kind: {kind!r}")
