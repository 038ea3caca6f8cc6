"""Set-associative cache array behaviour."""

import pytest

from repro.coherence.states import LineState
from repro.errors import ProtocolError
from repro.memory.cache import CacheArray


def test_install_and_lookup():
    cache = CacheArray(num_sets=4, associativity=2)
    cache.install(0, LineState.E)
    line = cache.lookup(0)
    assert line is not None and line.state is LineState.E


def test_lookup_misses_invalid_lines():
    cache = CacheArray(4, 2)
    line = cache.install(0, LineState.E)
    line.state = LineState.I
    assert cache.lookup(0) is None


def test_install_rejects_duplicates_and_full_sets():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    with pytest.raises(ProtocolError):
        cache.install(0, LineState.S)
    cache.install(4, LineState.S)  # same set (0 mod 4)
    with pytest.raises(ProtocolError):
        cache.install(8, LineState.S)


def test_choose_victim_is_lru():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(4, LineState.S)
    cache.lookup(0)  # 0 becomes most recently used
    victim = cache.choose_victim(8)
    assert victim is not None and victim.line_address == 4


def test_choose_victim_none_when_room():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    assert cache.choose_victim(4) is None


def test_remove_frees_slot():
    cache = CacheArray(4, 1)
    cache.install(0, LineState.M)
    cache.remove(0)
    cache.install(4, LineState.M)
    assert cache.lookup(4) is not None


def test_flash_transform_sweeps_and_prunes():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.TMI)
    cache.install(1, LineState.TI)
    cache.install(2, LineState.M)

    assert cache.flash_transform(LineState.after_commit) == 2
    assert cache.peek(0).state is LineState.M
    assert cache.peek(1) is None  # TI -> I, pruned
    assert cache.peek(2).state is LineState.M


def test_occupancy_counts():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(1, LineState.E)
    assert cache.occupancy() == 2
    assert cache.set_occupancy(0) == 1


def test_valid_lines_iterates_all():
    cache = CacheArray(4, 2)
    for address in (0, 1, 2):
        cache.install(address, LineState.S)
    assert sorted(line.line_address for line in cache.valid_lines()) == [0, 1, 2]


def test_shape_validation():
    with pytest.raises(ValueError):
        CacheArray(3, 2)
    with pytest.raises(ValueError):
        CacheArray(4, 0)


def test_peek_does_not_touch_lru():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(4, LineState.S)
    cache.lookup(4)
    cache.peek(0)  # must not refresh 0
    victim = cache.choose_victim(8)
    assert victim.line_address == 0


# -------------------------------------------- the free-way short-circuit
#
# ``choose_victim`` and ``install`` skip their set scans when the set has
# fewer entries than ways.  A set can also hold entries forced to I,
# which count as entries but not as valid lines; these tests pin both
# methods to the valid-line count in either case.


@pytest.mark.parametrize("associativity", [1, 2, 4])
def test_choose_victim_is_none_exactly_when_a_way_is_free(associativity):
    cache = CacheArray(4, associativity)
    for k in range(associativity + 1):
        free = cache.set_occupancy(0) < associativity
        assert (cache.choose_victim(0) is None) == free
        if free:
            cache.install(4 * k, LineState.S)
    assert not free


def test_choose_victim_skips_a_line_forced_to_invalid():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(4, LineState.E)
    cache.lookup(0)  # 4 is now the LRU line
    cache.peek(4).state = LineState.I
    # Two entries, one valid line: a way is free.
    assert len(cache._sets[0]) == 2 and cache.set_occupancy(0) == 1
    assert cache.choose_victim(8) is None
    cache.install(8, LineState.S)
    # Three entries, two valid lines: the set is full, and the forced
    # line is never the victim although it is the least recently used.
    assert len(cache._sets[0]) == 3
    victim = cache.choose_victim(12)
    assert victim is not None and victim.line_address == 0


def test_install_still_rejects_full_sets_and_present_lines():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(4, LineState.S)
    with pytest.raises(ProtocolError, match="full"):
        cache.install(8, LineState.S)
    with pytest.raises(ProtocolError, match="already present"):
        cache.install(4, LineState.M)
    # A line forced to I frees its way, and its address may be
    # installed again.
    cache.peek(4).state = LineState.I
    cache.install(4, LineState.M)
    assert cache.lookup(4).state is LineState.M
    cache.peek(0).state = LineState.I
    cache.install(8, LineState.S)
    # Three entries (one in I), two valid lines: full again.
    assert len(cache._sets[0]) == 3
    with pytest.raises(ProtocolError, match="full"):
        cache.install(12, LineState.S)
    with pytest.raises(ProtocolError, match="already present"):
        cache.install(8, LineState.S)


def test_install_on_a_one_way_set():
    cache = CacheArray(2, 1)
    cache.install(0, LineState.E)
    with pytest.raises(ProtocolError, match="already present"):
        cache.install(0, LineState.E)
    with pytest.raises(ProtocolError, match="full"):
        cache.install(2, LineState.E)
    assert cache.choose_victim(2).line_address == 0
    # The other set is untouched.
    assert cache.choose_victim(1) is None
    cache.install(1, LineState.S)
