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
