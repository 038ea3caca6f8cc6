"""Hash families for signatures."""

import pytest

from repro.signatures.hashing import (
    ADDRESS_BITS,
    BitSelectHash,
    H3Hash,
    HashFamily,
    make_hash_family,
)
from repro.sim.rng import DeterministicRng


def test_bit_select_extracts_expected_bits():
    hash_fn = BitSelectHash(index_bits=4, shift=2)
    assert hash_fn(0b110100) == 0b1101
    assert hash_fn(0) == 0


def test_bit_select_validates_args():
    with pytest.raises(ValueError):
        BitSelectHash(0)
    with pytest.raises(ValueError):
        BitSelectHash(4, shift=-1)


def test_h3_output_range():
    rng = DeterministicRng(1)
    hash_fn = H3Hash.random(9, rng)
    for address in range(0, 5000, 37):
        assert 0 <= hash_fn(address) < 512


def test_h3_deterministic():
    hash_fn = H3Hash([0b1010, 0b0110])
    assert hash_fn(0b1000) == hash_fn(0b1000)
    # bit0 = parity(0b1000 & 0b1010) = 1; bit1 = parity(0b1000 & 0b0110) = 0
    assert hash_fn(0b1000) == 0b01


def test_h3_rejects_empty_masks():
    with pytest.raises(ValueError):
        H3Hash([])


def _xor_fold_parity(value: int) -> int:
    """Parity by XOR-folding a 64-bit value down to one bit."""
    value ^= value >> 32
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


def _h3_reference(masks, address: int) -> int:
    result = 0
    for bit, mask in enumerate(masks):
        result |= _xor_fold_parity(address & mask) << bit
    return result


def test_h3_matches_the_xor_fold_reference():
    """Each output bit is the XOR-fold parity of ``address & mask``, over
    random addresses and masks, the full 40-bit masks included."""
    rng = DeterministicRng(11)
    full = (1 << ADDRESS_BITS) - 1
    mask_sets = [[full] * 9, [full, 1, 1 << (ADDRESS_BITS - 1), full ^ 1]]
    mask_sets += [[rng.randint(1, full) for _ in range(9)] for _ in range(20)]
    addresses = [0, 1, full, full ^ 1, 1 << (ADDRESS_BITS - 1)]
    addresses += [rng.randint(0, full) for _ in range(400)]
    for masks in mask_sets:
        hash_fn = H3Hash(masks)
        for address in addresses:
            assert hash_fn(address) == _h3_reference(masks, address)


def test_h3_xor_linearity():
    """H3 is linear over GF(2): h(a ^ b) == h(a) ^ h(b)."""
    rng = DeterministicRng(2)
    hash_fn = H3Hash.random(8, rng)
    for a, b in [(3, 5), (100, 999), (2 ** 20, 7)]:
        assert hash_fn(a ^ b) == hash_fn(a) ^ hash_fn(b)


def test_family_shapes():
    family = make_hash_family(2048, 4)
    assert len(family) == 4
    assert family.index_bits == 9  # 2048 / 4 = 512-entry banks
    indices = family.indices(12345)
    assert len(indices) == 4
    assert all(0 <= index < 512 for index in indices)


def test_family_bit_select_variant():
    family = make_hash_family(256, 2, kind="bit-select")
    assert len(family) == 2


def test_family_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_hash_family(2048, 3)  # does not divide evenly
    with pytest.raises(ValueError):
        make_hash_family(96, 2)  # bank not a power of two
    with pytest.raises(ValueError):
        make_hash_family(2048, 4, kind="nope")
    with pytest.raises(ValueError):
        HashFamily([BitSelectHash(6), BitSelectHash(7)])  # banks of unequal width


def test_families_with_same_seed_match():
    one = make_hash_family(1024, 4, seed=9)
    two = make_hash_family(1024, 4, seed=9)
    for address in (0, 17, 923441, (1 << ADDRESS_BITS) - 1):
        assert one.indices(address) == two.indices(address)
