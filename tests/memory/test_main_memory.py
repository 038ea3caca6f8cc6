"""Functional memory image."""

from repro.memory.main_memory import MainMemory


def test_default_value_is_zero():
    memory = MainMemory()
    assert memory.read(123456) == 0


def test_write_then_read():
    memory = MainMemory()
    memory.write(8, 42)
    assert memory.read(8) == 42


def test_counters_track_traffic():
    """Traffic shows in the stored words; the image keeps no access counts."""
    memory = MainMemory()
    memory.write(0, 1)
    memory.write(0, 5)
    assert memory.read(0) == 5
    assert memory.read(8) == 0
    assert memory.words == {0: 5}
    assert memory.words.get(8, 0) == memory.read(8)


def test_snapshot_is_a_copy():
    memory = MainMemory()
    memory.write(0, 1)
    snapshot = memory.snapshot()
    snapshot[0] = 99
    assert memory.read(0) == 1
    assert len(memory) == 1
