"""Signature (Bloom filter) semantics, incl. property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures.bloom import Signature
from repro.signatures.hashing import make_hash_family

addresses = st.integers(min_value=0, max_value=(1 << 36) - 1)


def test_empty_signature_has_no_members():
    signature = Signature(256, 2)
    assert not signature.member(1234)
    assert signature.is_empty
    assert signature.popcount == 0


def test_insert_then_member():
    signature = Signature(256, 2)
    signature.insert(77)
    assert signature.member(77)
    assert not signature.is_empty


@given(st.lists(addresses, max_size=200))
@settings(max_examples=50, deadline=None)
def test_no_false_negatives(inserted):
    """The defining Bloom property: every inserted address is a member."""
    signature = Signature(512, 4)
    for address in inserted:
        signature.insert(address)
    for address in inserted:
        assert signature.member(address)


@given(st.lists(addresses, min_size=1, max_size=50), st.lists(addresses, max_size=50))
@settings(max_examples=30, deadline=None)
def test_union_covers_both_operands(left_set, right_set):
    left = Signature(512, 4)
    right = Signature(512, 4)
    left.insert_all(left_set)
    right.insert_all(right_set)
    left.union(right)
    for address in left_set + right_set:
        assert left.member(address)


@given(st.lists(addresses, min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_intersects_shared_membership(shared):
    one = Signature(512, 4)
    two = Signature(512, 4)
    one.insert_all(shared)
    two.insert_all(shared)
    assert one.intersects(two)


def test_intersects_false_for_disjoint_sparse_sets():
    one = Signature(2048, 4)
    two = Signature(2048, 4)
    one.insert(100)
    two.insert(2_000_000)
    # With two sparse entries in a 2K-bit filter a collision would be
    # astronomically unlucky under the fixed default seed.
    assert not one.intersects(two)


def test_clear_resets():
    signature = Signature(256, 2)
    signature.insert(5)
    signature.clear()
    assert signature.is_empty
    assert not signature.member(5)
    assert signature.word == 0


def test_copy_is_independent():
    signature = Signature(256, 2)
    signature.insert(5)
    clone = signature.copy()
    clone.insert(6)
    assert clone.member(5) and clone.member(6)
    # Original must share the hash family (same indices) but not bits.
    assert signature.member(5)


def test_copy_preserves_hash_family():
    signature = Signature(256, 2, seed=123)
    clone = signature.copy()
    assert clone.family is signature.family
    clone.insert(42)
    signature.insert(42)
    assert signature.word == clone.word
    probes = range(0, 5000, 7)
    assert [clone.member(p) for p in probes] == [signature.member(p) for p in probes]


def test_family_of_the_wrong_shape_is_rejected():
    # Too wide: 512-bit banks behind a 64-bit-bank register would write
    # into the neighbouring bank.
    with pytest.raises(ValueError):
        Signature(256, 4, family=make_hash_family(2048, 4))
    # Right bank width, wrong bank count.
    with pytest.raises(ValueError):
        Signature(256, 4, family=make_hash_family(128, 2))
    signature = Signature(256, 4)
    with pytest.raises(ValueError):
        signature.rebind_family(make_hash_family(2048, 4))
    with pytest.raises(ValueError):
        signature.rebind_family(make_hash_family(512, 8))
    # A rejected rebind leaves the register wired as it was.
    assert signature.family is make_hash_family(256, 4)
    signature.rebind_family(make_hash_family(256, 4, seed=0xBEEF))


def test_union_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Signature(256, 2).union(Signature(512, 2))
    with pytest.raises(ValueError):
        Signature(256, 2).intersects(Signature(256, 4))


def test_occupancy_monotone():
    signature = Signature(256, 2)
    previous = 0.0
    for address in range(0, 4000, 67):
        signature.insert(address)
        assert signature.occupancy() >= previous
        previous = signature.occupancy()
    assert 0.0 < signature.occupancy() <= 1.0


def test_false_positive_rate_reasonable():
    """2048-bit 4-hash signatures keep FP rates low at small sets."""
    signature = Signature(2048, 4)
    signature.insert_all(range(0, 64))
    false_hits = sum(
        1 for probe in range(10_000, 20_000) if signature.member(probe)
    )
    assert false_hits < 200  # < 2% at 64 entries


def test_read_hash_is_deterministic_and_bounded():
    signature = Signature(2048, 4)
    value = signature.read_hash(777)
    assert value == signature.read_hash(777)
    assert 0 <= value < (1 << (4 * 9))
