"""The signature register against a spec written from Table 4(a).

The reference below is a ``k``-bank filter kept as one *set of indices*
per bank and driven only by ``family.indices``: ``insert`` sets bank
*b*'s bit ``indices[b]``, ``member`` asks for every bank's bit, and
``clear`` empties every bank (PAPER.md S3).  The register under test
keeps the same banks as one software-visible word, bank *b* at bits
``[b*W, (b+1)*W)``; every answer, and the word itself, must match.
"""

from __future__ import annotations

import random

import pytest

from repro.signatures.bloom import Signature
from repro.signatures.hashing import HashFamily, make_hash_family

SHAPES = [(2048, 4), (256, 2), (64, 1)]
KINDS = ["h3", "bit-select"]


class SpecFilter:
    """Banked Bloom filter from the paper's op list, one index set per bank."""

    def __init__(self, family: HashFamily):
        self.family = family
        self.banks = [set() for _ in range(len(family))]
        self.foreign = False

    def insert(self, address):
        for bank, index in zip(self.banks, self.family.indices(address)):
            bank.add(index)

    def member(self, address):
        if self.foreign:
            return not self.is_empty()
        return all(
            index in bank for bank, index in zip(self.banks, self.family.indices(address))
        )

    def clear(self):
        self.banks = [set() for _ in self.banks]
        self.foreign = False

    def union(self, other):
        for bank, theirs in zip(self.banks, other.banks):
            bank |= theirs
        if other.foreign or (other.family is not self.family and not other.is_empty()):
            self.foreign = True

    def intersects(self, other):
        if self.foreign or other.foreign or self.family is not other.family:
            return not (self.is_empty() or other.is_empty())
        return all(mine & theirs for mine, theirs in zip(self.banks, other.banks))

    def is_empty(self):
        return not any(self.banks)

    def popcount(self):
        return sum(len(bank) for bank in self.banks)

    def bank_fills(self, bank_bits):
        return [len(bank) / bank_bits for bank in self.banks]

    def read_hash(self, address):
        value = 0
        for index in self.family.indices(address):
            value = (value << self.family.index_bits) | index
        return value

    def word(self, bank_bits):
        """The register value the layout promises for these banks."""
        value = 0
        for position, bank in enumerate(self.banks):
            for index in bank:
                value |= 1 << (position * bank_bits + index)
        return value


def _stream(rng, length):
    """A hot set that repeats plus a wide tail (line addresses)."""
    hot = [rng.randrange(1 << 20) for _ in range(16)]
    return [
        rng.choice(hot) if rng.random() < 0.5 else rng.randrange(1 << 36)
        for _ in range(length)
    ]


def _assert_same(sig, spec, probes):
    bank_bits = sig.bits // sig.num_hashes
    assert sig.word == spec.word(bank_bits)
    assert sig.is_empty == spec.is_empty()
    assert sig.popcount == spec.popcount()
    assert sig.bank_fills() == spec.bank_fills(bank_bits)
    expected_fp = 1.0
    for fill in spec.bank_fills(bank_bits):
        expected_fp *= fill
    assert sig.false_positive_estimate() == expected_fp
    for address in probes:
        assert sig.member(address) == spec.member(address)
        assert sig.read_hash(address) == spec.read_hash(address)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bits,banks", SHAPES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_register_matches_spec(bits, banks, kind, seed):
    rng = random.Random(seed * 1000 + bits + banks)
    family = make_hash_family(bits, banks, kind=kind)
    sig, spec = Signature(bits, banks, family=family), SpecFilter(family)
    other, other_spec = Signature(bits, banks, family=family), SpecFilter(family)
    stream = _stream(rng, 120)
    probes = _stream(rng, 60) + stream[:30]
    for step, address in enumerate(stream):
        sig.insert(address)
        spec.insert(address)
        if step % 3 == 0:
            other.insert(address ^ 0x5A5)
            other_spec.insert(address ^ 0x5A5)
        if step % 20 == 0:
            _assert_same(sig, spec, probes)
            assert sig.intersects(other) == spec.intersects(other_spec)
    _assert_same(sig, spec, probes)

    clone = sig.copy()
    assert clone.family is sig.family
    _assert_same(clone, spec, probes)
    clone.insert(0xDEAD)
    assert sig.word == spec.word(bits // banks)  # the snapshot is independent

    sig.union(other)
    spec.union(other_spec)
    _assert_same(sig, spec, probes)
    assert sig.intersects(other) == spec.intersects(other_spec)

    sig.clear()
    spec.clear()
    assert sig.word == 0
    _assert_same(sig, spec, probes)
    assert sig.intersects(other) is spec.intersects(other_spec) is False


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bits,banks", SHAPES)
def test_foreign_union_after_a_rotation_matches_spec(bits, banks, kind):
    rng = random.Random(bits * banks)
    home = make_hash_family(bits, banks, kind=kind)
    rotated = make_hash_family(bits, banks, seed=0xBEEF, kind=kind)
    ours, ours_spec = Signature(bits, banks, family=home), SpecFilter(home)
    theirs = Signature(bits, banks, family=home)
    theirs_spec = SpecFilter(home)
    # ``theirs`` rotates between transactions, then fills under the new family.
    theirs.rebind_family(rotated)
    theirs_spec.family = rotated
    probes = _stream(rng, 80)
    for address in _stream(rng, 40):
        ours.insert(address)
        ours_spec.insert(address)
        theirs.insert(address + 1)
        theirs_spec.insert(address + 1)
    assert ours.intersects(theirs) == ours_spec.intersects(theirs_spec) is True
    ours.union(theirs)
    ours_spec.union(theirs_spec)
    assert ours_spec.foreign
    _assert_same(ours, ours_spec, probes)
    # Foreign bits answer conservatively even against a same-family peer.
    peer, peer_spec = Signature(bits, banks, family=home), SpecFilter(home)
    peer.insert(probes[0])
    peer_spec.insert(probes[0])
    assert ours.intersects(peer) == ours_spec.intersects(peer_spec) is True
    # A foreign union of an empty register changes nothing.
    fresh, fresh_spec = Signature(bits, banks, family=home), SpecFilter(home)
    fresh.union(Signature(bits, banks, family=rotated))
    fresh_spec.union(SpecFilter(rotated))
    assert not fresh_spec.foreign
    _assert_same(fresh, fresh_spec, probes)
    # A clear drops the foreign mark along with the bits: probes are exact again.
    ours.clear()
    ours_spec.clear()
    ours.insert(probes[0])
    ours_spec.insert(probes[0])
    _assert_same(ours, ours_spec, probes)


@pytest.mark.parametrize("bits,banks", SHAPES)
def test_rebind_family_needs_a_clear_register(bits, banks):
    rotated = make_hash_family(bits, banks, seed=0xBEEF)
    sig = Signature(bits, banks)
    home = sig.family
    sig.insert(12345)
    word = sig.word
    with pytest.raises(ValueError):
        sig.rebind_family(rotated)
    assert sig.family is home and sig.word == word and sig.member(12345)
    sig.clear()
    sig.rebind_family(rotated)
    spec = SpecFilter(rotated)
    for address in (7, 12345, 1 << 30):
        sig.insert(address)
        spec.insert(address)
    _assert_same(sig, spec, [7, 12345, 1 << 30, 99, 1 << 33])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bits,banks", SHAPES)
def test_memo_flash_clear_changes_no_answer(bits, banks, kind):
    shared = make_hash_family(bits, banks, kind=kind)
    bound = 8
    tiny = HashFamily(list(shared._hashes), cache_entries=bound)
    rng = random.Random(bits + banks)
    sig, spec = Signature(bits, banks, family=tiny), SpecFilter(tiny)
    memo = tiny.mask_memo
    stream = _stream(rng, 200)
    for address in stream:
        sig.insert(address)
        spec.insert(address)
        assert len(memo) <= bound
        assert sig.member(address)
    assert tiny.mask_memo is memo  # cleared in place, never replaced
    _assert_same(sig, spec, stream[:50] + _stream(rng, 50))
    for address in stream:
        assert tiny.mask(address) == shared.mask(address)
