"""The T-state index behind footprint-proportional flash commit/abort.

The flash hardware clears every T bit in one cycle.  The simulator finds
those lines through an index that each cache array and victim buffer
keeps, instead of scanning every valid line.  These tests pin the
index's bookkeeping and show that runs with the indexed flash are
bit-identical to runs with a full sweep, on every backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import InvariantChecker
from repro.coherence.states import LineState
from repro.core.machine import FlexTMMachine
from repro.errors import InvariantViolation
from repro.harness.runner import SYSTEMS, ExperimentConfig, run_experiment
from repro.memory.cache import CacheArray
from repro.memory.victim import VictimBuffer
from repro.params import small_test_params

T_STATES = (LineState.TMI, LineState.TI)
PLAIN_STATES = (LineState.S, LineState.E, LineState.M)


def indexed(cache):
    return sorted(line.line_address for line in cache.transactional_lines())


def scanned(cache):
    return sorted(line.line_address for line in cache.valid_lines() if line.t_bit)


# --------------------------------------------------------------- cache array


def test_install_indexes_only_t_states():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.TMI)
    cache.install(1, LineState.TI)
    cache.install(2, LineState.M)
    assert indexed(cache) == [0, 1]


def test_state_writes_move_lines_in_and_out_of_the_index():
    cache = CacheArray(4, 2)
    line = cache.install(0, LineState.M)
    line.state = LineState.TMI  # M --TStore--> TMI
    assert indexed(cache) == [0] and line.t_bit
    line.state = LineState.M
    assert indexed(cache) == [] and not line.t_bit


def test_remove_drops_a_line_from_the_index():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.TMI)
    cache.remove(0)
    assert indexed(cache) == []
    assert cache.flash_transform(LineState.after_abort) == 0


def test_flash_touches_only_the_footprint():
    cache = CacheArray(4, 4)
    for address in range(12):
        cache.install(address, LineState.S)
    cache.install(12, LineState.TMI)
    cache.install(13, LineState.TI)
    plain = [line.line_address for line in cache.valid_lines() if not line.t_bit]

    assert cache.flash_transform(LineState.after_commit) == 2
    assert cache.peek(12).state is LineState.M
    assert cache.peek(13) is None
    # Untouched lines keep their states and their order in the array.
    survivors = [line.line_address for line in cache.valid_lines()]
    assert [a for a in survivors if a != 12] == plain
    assert indexed(cache) == []


def test_flash_abort_drops_every_t_line():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.TMI)
    cache.install(1, LineState.TI)
    cache.install(2, LineState.E)
    assert cache.flash_transform(LineState.after_abort) == 2
    assert [line.line_address for line in cache.valid_lines()] == [2]
    assert cache.occupancy() == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["install", "write", "remove", "commit", "abort"]),
            st.integers(min_value=0, max_value=15),
            st.sampled_from(T_STATES + PLAIN_STATES),
        ),
        max_size=60,
    )
)
def test_index_matches_a_full_scan(ops):
    cache = CacheArray(4, 2)
    for op, address, state in ops:
        line = cache.peek(address)
        if op == "install" and line is None:
            victim = cache.choose_victim(address)
            if victim is not None:
                cache.remove(victim.line_address)
            cache.install(address, state)
        elif op == "write" and line is not None:
            line.state = state
        elif op == "remove":
            cache.remove(address)
        elif op == "commit":
            footprint = len(scanned(cache))
            assert cache.flash_transform(LineState.after_commit) == footprint
        elif op == "abort":
            cache.flash_transform(LineState.after_abort)
        assert indexed(cache) == scanned(cache)


# ------------------------------------------------------------- victim buffer


def test_victim_flash_visits_t_entries_and_keeps_fifo_order():
    buffer = VictimBuffer(4)
    buffer.insert(1, LineState.S)
    buffer.insert(2, LineState.TI)
    buffer.insert(3, LineState.E)
    buffer.flash_transform(LineState.after_commit)
    assert list(buffer._entries.items()) == [(1, LineState.S), (3, LineState.E)]
    assert not buffer._transactional


def test_victim_index_follows_displacement_and_overwrite():
    buffer = VictimBuffer(2)
    buffer.insert(1, LineState.TI)
    buffer.insert(2, LineState.S)
    buffer.insert(2, LineState.TI)  # overwrite in place
    assert list(buffer._transactional) == [1, 2]
    buffer.insert(3, LineState.S)  # displaces 1
    assert list(buffer._transactional) == [2]
    assert buffer.extract(2) is LineState.TI
    assert not buffer._transactional


# ----------------------------------------------------- whole-run equivalence


def _sweep_every_line(self, transform):
    """The pre-index flash: visit every valid line of the array."""
    touched = 0
    for cache_set in self._sets:
        for line in list(cache_set.values()):
            line.state = transform(line.state)
            touched += 1
            if line.state is LineState.I:
                del cache_set[line.line_address]
    return touched


def _sweep_every_victim(self, transform):
    for address, state in list(self._entries.items()):
        new_state = transform(state)
        if new_state is LineState.I:
            self.invalidate(address)
        elif new_state is not state:
            self._entries[address] = new_state


def _config(system, params, **overrides):
    return ExperimentConfig(
        workload="HashTable",
        system=system,
        threads=4,
        cycle_limit=15_000,
        seed=11,
        params=params,
        **overrides,
    )


@pytest.mark.parametrize("small", [False, True], ids=["default-l1", "tiny-l1"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_indexed_flash_is_bit_identical_to_a_full_sweep(system, small, monkeypatch):
    params = small_test_params(4) if small else None
    indexed_result = run_experiment(_config(system, params))
    monkeypatch.setattr(CacheArray, "flash_transform", _sweep_every_line)
    monkeypatch.setattr(VictimBuffer, "flash_transform", _sweep_every_victim)
    swept_result = run_experiment(_config(system, params))
    assert indexed_result.commits > 0
    assert indexed_result == swept_result


@pytest.mark.parametrize("tmi_to_victim", [False, True])
@pytest.mark.parametrize("workload", ["HashTable", "Vacation-High", "RBTree"])
def test_flash_index_sweep_holds_under_eviction_pressure(workload, tmi_to_victim):
    config = ExperimentConfig(
        workload=workload,
        system="FlexTM",
        threads=4,
        cycle_limit=20_000,
        seed=3,
        params=small_test_params(4),
        tmi_to_victim=tmi_to_victim,
        invariants=True,
    )
    assert run_experiment(config).commits > 0


def test_flash_index_sweep_catches_a_bypassed_state_write():
    machine = FlexTMMachine(small_test_params(2))
    line = machine.processors[0].l1.array.install(5, LineState.S)
    line._state = LineState.TI  # skips the setter that keeps the index
    with pytest.raises(InvariantViolation) as info:
        InvariantChecker().check_machine(machine)
    assert info.value.invariant == "flash-index"
