"""The L1's clean-hit path against the spec cells and the full dispatch.

``L1Controller.access`` answers a clean hit from
:data:`repro.coherence.tables.CLEAN_HITS` with a result shared by every
L1 of the same hit latency.  These tests pin that table to the spec's
``"local"`` cells, check every (access, state) cell against the
hand-written Figure 1 reference walk, and check that the shortcut keeps
the shared results intact, still charges chaos eviction cycles, and
creates no counter a run never increments.  ``access`` probes the array
itself, after the chaos roll, and ticks the LRU state exactly as
``CacheArray.lookup`` does.
"""

import pytest

from repro.chaos.engine import ChaosEngine, ChaosSpec
from repro.coherence import tables
from repro.coherence.l1 import shared_clean_hits
from repro.coherence.messages import AccessKind
from repro.coherence.states import LineState
from repro.core.descriptor import ConflictMode, TransactionDescriptor
from repro.core.machine import FlexTMMachine
from repro.core.processor import OT_ALLOCATE_TRAP_CYCLES, OT_SPILL_CYCLES
from repro.core.tsw import TxStatus
from repro.errors import ProtocolError
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.params import DEFAULT_PARAMS, small_test_params
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.stm.cgl import CglRuntime
from tests.coherence.test_figure1_conformance import (
    LOCAL_ERRORS,
    LOCAL_HITS,
    LOCAL_TRANSITIONS,
    _ensure_txn,
    _machine,
    _put_in_state,
    _state_of,
)

_FLUSH_CELL = (AccessKind.TSTORE, LineState.M)


def _access_counts(machine):
    return {
        name: value
        for name, value in machine.stats.snapshot().items()
        if name.startswith("l1.access.")
    }


# ------------------------------------------------------------ (a) the table


def test_clean_hits_are_the_local_cells_minus_the_flush():
    local = {
        (kind, state): tables.LOCAL_NEXT_STATE[kind, state]
        for (kind, state), outcome in tables.LOCAL_DISPATCH.items()
        if outcome == "local"
    }
    assert _FLUSH_CELL in local and local[_FLUSH_CELL] is LineState.TMI
    del local[_FLUSH_CELL]
    compiled = {
        (kind, state): target
        for kind, row in tables.CLEAN_HITS.items()
        for state, target in row.items()
    }
    assert compiled == local
    # Keyed by the members themselves, one row per access kind.
    assert list(tables.CLEAN_HITS) == list(AccessKind)
    assert all(type(state) is LineState for row in tables.CLEAN_HITS.values() for state in row)


def test_flush_cell_takes_the_full_path():
    machine = _machine()
    address = _put_in_state(machine, LineState.M)
    _ensure_txn(machine, 0)
    l1 = machine.processors[0].l1
    shared = shared_clean_hits(machine.params.l1_hit_cycles)
    result = l1.access(AccessKind.TSTORE, machine.amap.line_of(address))
    assert result.hit and result.state is LineState.TMI
    assert result.cycles == machine.params.l1_hit_cycles + 2  # posted write-back
    assert result not in shared[AccessKind.TSTORE].values()
    assert machine.stats.counter("l1.m_to_tmi_flush").value == 1


# ------------------------------------------- (b) every cell vs the reference


def _fill_set(machine, line):
    """Fill processor 0's set for ``line`` with plain lines."""
    array = machine.processors[0].l1.array
    candidate = line + 4096 * array.num_sets
    while array.set_occupancy(line) < array.associativity:
        machine.load(0, candidate * machine.params.line_bytes)
        candidate += array.num_sets


_CELLS = [(start, op, expected) for start, op, expected in LOCAL_TRANSITIONS] + [
    (start, op, None) for start, op in LOCAL_ERRORS
]


@pytest.mark.parametrize(
    "start,op,expected",
    _CELLS,
    ids=[f"{s.name}-{o.value}" for s, o, _ in _CELLS],
)
def test_every_cell_matches_the_reference_walk(start, op, expected):
    machine = _machine()
    address = _put_in_state(machine, start)
    if op.is_transactional:
        _ensure_txn(machine, 0)
    line = machine.amap.line_of(address)
    l1 = machine.processors[0].l1
    lru_checked = start is not LineState.I and expected is not None
    if lru_checked:
        # The line is its set's LRU victim until the access touches it.
        _fill_set(machine, line)
        assert l1.array.choose_victim(line).line_address == line
    before = _access_counts(machine)
    if expected is None:
        with pytest.raises(ProtocolError):
            l1.access(op, line)
        assert _state_of(machine, 0, address) is start
        return
    result = l1.access(op, line)

    counts = dict(before)
    counts[f"l1.access.{op.value}"] = counts.get(f"l1.access.{op.value}", 0) + 1
    assert _access_counts(machine) == counts
    assert _state_of(machine, 0, address) is expected
    assert result.state is expected
    assert result.hit == ((start, op) in LOCAL_HITS)
    if result.hit:
        flush = (op, start) == _FLUSH_CELL
        assert result.cycles == machine.params.l1_hit_cycles + (2 if flush else 0)
        assert not result.conflicts and not result.nacked
        assert not result.threatened_uncached
        shared = shared_clean_hits(machine.params.l1_hit_cycles)[op]
        assert (result is shared.get(start)) == (not flush)
    if lru_checked:
        # The access made the line most recently used.
        assert l1.array.choose_victim(line).line_address != line


def test_shared_results_are_per_latency_and_per_process():
    cycles = DEFAULT_PARAMS.l1_hit_cycles
    assert shared_clean_hits(cycles) is shared_clean_hits(cycles)
    first = FlexTMMachine(small_test_params(2))
    second = FlexTMMachine(small_test_params(2))
    assert first.processors[0].l1._clean_hits is second.processors[1].l1._clean_hits
    other = shared_clean_hits(cycles + 3)
    load, e = AccessKind.LOAD, LineState.E
    assert other[load][e].cycles == cycles + 3
    assert other[load][e] is not shared_clean_hits(cycles)[load][e]


# ------------------------------------------- (c) shared results stay intact


def test_shared_results_unmodified_after_a_full_run():
    config = ExperimentConfig(
        workload="Vacation-High",
        system="FlexTM",
        threads=4,
        cycle_limit=20_000,
        seed=3,
        invariants=True,
    )
    result = run_experiment(config)
    assert result.commits > 0
    accesses = sum(result.stats[f"l1.access.{kind.value}"] for kind in AccessKind)
    assert accesses > 2 * result.stats["l1.misses"]  # mostly hits
    cycles = (config.params or DEFAULT_PARAMS).l1_hit_cycles
    for kind, row in shared_clean_hits(cycles).items():
        for state, shared in row.items():
            assert shared.cycles == cycles
            assert shared.conflicts == ()
            assert shared.state is tables.CLEAN_HITS[kind][state]
            assert shared.hit and not shared.nacked and not shared.threatened_uncached


# ------------------------------------- (d) chaos eviction cycles still count


def _bare_transaction(machine, proc_id):
    """A running transaction whose TSW line is not cached."""
    tsw = machine.allocate(machine.params.line_bytes, line_aligned=True)
    descriptor = TransactionDescriptor(
        thread_id=proc_id, tsw_address=tsw, mode=ConflictMode.LAZY, last_processor=proc_id
    )
    machine.memory.write(tsw, TxStatus.ACTIVE)
    machine.register_descriptor(descriptor)
    machine.processors[proc_id].begin_transaction(descriptor)


def test_hit_after_a_chaos_tmi_spill_pays_the_spill():
    machine = _machine()
    _bare_transaction(machine, 0)
    speculative = machine.allocate_words(1, line_aligned=True)
    target = machine.allocate_words(1, line_aligned=True)
    machine.tstore(0, speculative, 1)
    machine.tload(0, target)
    l1 = machine.processors[0].l1
    valid = sorted(line.state.name for line in l1.array.valid_lines())
    assert valid == ["E", "TMI"]

    # Every access now evicts one other line: the TMI one, the only
    # candidate, spills to the overflow table before the lookup.
    machine.attach(chaos=ChaosEngine(ChaosSpec(seed=1, l1_evict=1.0)))
    result = machine.tload(0, target)
    spill = OT_SPILL_CYCLES + OT_ALLOCATE_TRAP_CYCLES
    assert result.cycles == machine.params.l1_hit_cycles + spill
    assert machine.stats.counter("l1.chaos_evictions").value == 1
    assert machine.stats.counter("l1.tmi_overflows").value == 1
    assert _state_of(machine, 0, target) is LineState.E

    # No valid line is left to evict: the next hit is clean again.
    result = machine.tload(0, target)
    assert result.cycles == machine.params.l1_hit_cycles


# ---------------------------------------------- (e) no never-used counters


def test_a_run_without_plain_stores_has_no_store_counter():
    machine = FlexTMMachine(small_test_params(2))
    base = machine.allocate_words(4, line_aligned=True)

    def reader(ctx):
        for word in range(4):
            yield ("load", base + 8 * word)
            yield ("work", 5)

    backend = CglRuntime(machine)
    threads = [
        TxThread(t, backend, [WorkItem(reader, transactional=False)] * 3) for t in range(2)
    ]
    result = Scheduler(machine, threads).run(10_000)
    assert result.nontx_items == 6
    assert result.stats["l1.access.Load"] == 24
    assert not any(
        name.startswith("l1.access.") and name != "l1.access.Load" for name in result.stats
    )


# ------------------------------------------- (f) the probe inlined in access


def _filled_set():
    """A machine whose processor 0 holds a full set of plain lines;
    returns (machine, the set's line addresses)."""
    machine = _machine()
    line = machine.amap.line_of(machine.allocate_words(1, line_aligned=True))
    _fill_set(machine, line)
    array = machine.processors[0].l1.array
    lines = sorted(cached.line_address for cached in array.valid_lines()
                   if array.set_index(cached.line_address) == array.set_index(line))
    assert len(lines) == array.associativity
    return machine, lines


def test_hits_tick_the_lru_exactly_as_the_array_lookup_does():
    """A run of hits through ``L1Controller.access`` leaves the ticks and
    the LRU victim that the same run through ``CacheArray.lookup`` does."""
    by_access, lines = _filled_set()
    by_lookup, same_lines = _filled_set()
    assert same_lines == lines
    l1 = by_access.processors[0].l1
    array = by_lookup.processors[0].l1.array
    order = [lines[(7 * k + k // 3) % len(lines)] for k in range(40)]
    for line in order:
        assert l1.access(AccessKind.LOAD, line).hit
        assert array.lookup(line) is not None
        ticks = {cached.line_address: cached.last_use for cached in l1.array.valid_lines()}
        assert ticks == {cached.line_address: cached.last_use
                         for cached in array.valid_lines()}
        assert l1.array._use_tick == array._use_tick
        assert (l1.array.choose_victim(line).line_address
                == array.choose_victim(line).line_address)


def test_a_chaos_armed_hit_rolls_l1_pressure_before_the_probe(monkeypatch):
    machine = _machine()
    address = machine.allocate_words(1, line_aligned=True)
    machine.load(0, address)
    line = machine.amap.line_of(address)
    l1 = machine.processors[0].l1
    cached = l1.array.peek(line)
    machine.attach(chaos=ChaosEngine(ChaosSpec(seed=1, l1_evict=0.5)))
    seen = []
    roll = ChaosEngine.l1_pressure

    def l1_pressure(self):
        seen.append((cached.last_use, l1.array._use_tick))
        return roll(self)

    monkeypatch.setattr(ChaosEngine, "l1_pressure", l1_pressure)
    for count in range(1, 21):
        before = (cached.last_use, l1.array._use_tick)
        assert l1.access(AccessKind.LOAD, line).hit
        # Rolled once, before the hit touched the LRU state.
        assert len(seen) == count and seen[-1] == before
        assert cached.last_use == l1.array._use_tick == before[1] + 1
    assert machine.stats.counter("chaos.l1.evict").value > 0
