"""The machine's TLoad/TStore hit path against ``L1Controller.access``.

``FlexTMMachine.tload``/``tstore`` answer a clean hit on an L1 without
chaos themselves, from the L1's ``CLEAN_HITS`` rows: they bump the same
``l1.access.*`` counter, tick the LRU state and make the cell's state
change.  These tests check every such cell against ``access`` on a twin
machine, that only the clean hit skips ``access``, that a chaos-armed L1
still rolls ``l1_pressure`` before the probe, and that both paths bump
one bound ``l1.access.*`` counter.
"""

import pytest

from repro.chaos.engine import ChaosEngine, ChaosSpec
from repro.coherence import tables
from repro.coherence.l1 import L1Controller
from repro.coherence.messages import AccessKind
from repro.coherence.states import LineState
from repro.core.machine import FlexTMMachine
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from tests.coherence.test_figure1_conformance import _ensure_txn, _machine, _put_in_state
from tests.coherence.test_l1_hit_path import _bare_transaction

_TX_CELLS = [
    (kind, state)
    for kind in (AccessKind.TLOAD, AccessKind.TSTORE)
    for state in tables.CLEAN_HITS[kind]
]


def _machine_op(machine, kind, address):
    if kind is AccessKind.TLOAD:
        return machine.tload(0, address)
    return machine.tstore(0, address, 7)


def _line_view(machine, address):
    """What a hit may change: the line's state and tick, the array's
    tick, the line's T-state index entry and the access counters."""
    line = machine.amap.line_of(address)
    array = machine.processors[0].l1.array
    cached = array.peek(line)
    indexed = array._t_lines.get(line)
    return {
        "state": cached.state,
        "last_use": cached.last_use,
        "use_tick": array._use_tick,
        "t_index": None if indexed is None else (indexed is cached, indexed.state),
        "counters": {
            name: value for name, value in machine.stats.snapshot().items()
            if name.startswith("l1.access.")
        },
    }


@pytest.fixture
def access_calls(monkeypatch):
    """Counts the calls of ``L1Controller.access``, by access kind."""
    calls = []
    access = L1Controller.access

    def counting(self, kind, line_address):
        calls.append(kind)
        return access(self, kind, line_address)

    monkeypatch.setattr(L1Controller, "access", counting)
    return calls


# ------------------------------------------------------- (a) every cell


@pytest.mark.parametrize(
    "kind,state", _TX_CELLS, ids=[f"{s.name}-{k.value}" for k, s in _TX_CELLS]
)
def test_every_clean_cell_matches_access_on_a_twin(kind, state, access_calls):
    by_machine, twin = _machine(), _machine()
    address = _put_in_state(by_machine, state)
    assert _put_in_state(twin, state) == address
    _ensure_txn(by_machine, 0)
    _ensure_txn(twin, 0)
    assert _line_view(by_machine, address) == _line_view(twin, address)
    del access_calls[:]

    result = _machine_op(by_machine, kind, address)
    assert access_calls == []
    expected = twin.processors[0].l1.access(kind, twin.amap.line_of(address))

    view = _line_view(by_machine, address)
    assert view == _line_view(twin, address)
    assert view["state"] is tables.CLEAN_HITS[kind][state]
    assert result.cycles == expected.cycles == by_machine.params.l1_hit_cycles
    assert tuple(result.conflicts) == tuple(expected.conflicts) == ()
    assert not result.nacked and not result.success


# --------------------------------------------- (b) only the clean hit skips access


def test_clean_tload_and_tstore_hits_make_no_access_call(access_calls):
    machine = _machine()
    loaded = _put_in_state(machine, LineState.E)
    _ensure_txn(machine, 0)
    written = machine.allocate_words(1, line_aligned=True)
    machine.tstore(0, written, 1)  # a miss: installs TMI
    machine.tload(0, loaded)
    del access_calls[:]
    for value in range(2, 5):
        assert machine.tload(0, loaded).cycles == machine.params.l1_hit_cycles
        assert machine.tload(0, written).value == value - 1
        assert machine.tstore(0, written, value).cycles == machine.params.l1_hit_cycles
    assert access_calls == []


def test_a_miss_takes_one_access_call(access_calls):
    machine = _machine()
    _ensure_txn(machine, 0)
    address = machine.allocate_words(1, line_aligned=True)
    misses = machine.stats.counter("l1.misses").value
    del access_calls[:]
    machine.tload(0, address)
    machine.tstore(0, machine.allocate_words(1, line_aligned=True), 1)
    assert access_calls == [AccessKind.TLOAD, AccessKind.TSTORE]
    assert machine.stats.counter("l1.misses").value == misses + 2


def test_a_victim_refill_takes_one_access_call(access_calls):
    machine = _machine()
    address = _put_in_state(machine, LineState.E)
    _ensure_txn(machine, 0)
    line = machine.amap.line_of(address)
    l1 = machine.processors[0].l1
    l1.evict(l1.array.peek(line))  # silent: the E line goes to the victim buffer
    assert l1.victims.contains(line)
    del access_calls[:]
    result = machine.tload(0, address)
    assert access_calls == [AccessKind.TLOAD]
    assert result.cycles == machine.params.l1_hit_cycles + 1
    assert machine.stats.counter("l1.victim_hits").value == 1


def test_the_tstore_on_m_flush_takes_one_access_call(access_calls):
    machine = _machine()
    address = _put_in_state(machine, LineState.M)
    _ensure_txn(machine, 0)
    del access_calls[:]
    result = machine.tstore(0, address, 2)
    assert access_calls == [AccessKind.TSTORE]
    assert result.cycles == machine.params.l1_hit_cycles + 2
    assert machine.stats.counter("l1.m_to_tmi_flush").value == 1


def test_a_state_outside_the_row_takes_one_access_call(access_calls):
    machine = _machine()
    address = _put_in_state(machine, LineState.E)
    _ensure_txn(machine, 0)
    assert LineState.E not in tables.CLEAN_HITS[AccessKind.TSTORE]
    del access_calls[:]
    machine.tstore(0, address, 2)
    assert access_calls == [AccessKind.TSTORE]


def test_a_chaos_armed_l1_takes_one_access_call_per_hit(access_calls):
    machine = _machine()
    address = _put_in_state(machine, LineState.TMI)
    machine.attach(chaos=ChaosEngine(ChaosSpec(seed=1)))
    del access_calls[:]
    assert machine.tload(0, address).cycles == machine.params.l1_hit_cycles
    assert machine.tstore(0, address, 3).cycles == machine.params.l1_hit_cycles
    assert access_calls == [AccessKind.TLOAD, AccessKind.TSTORE]


# ------------------------------------------------------ (c) the chaos roll order


def test_a_chaos_armed_tload_rolls_l1_pressure_before_the_probe(monkeypatch):
    machine = _machine()
    address = machine.allocate_words(1, line_aligned=True)
    machine.load(0, address)
    _bare_transaction(machine, 0)  # its TSW line stays uncached
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
        assert machine.tload(0, address).cycles == machine.params.l1_hit_cycles
        # Rolled once, before the hit touched the LRU state.
        assert len(seen) == count and seen[-1] == before
        assert cached.last_use == l1.array._use_tick == before[1] + 1
    assert machine.stats.counter("chaos.l1.evict").value > 0


# ------------------------------------------------- (d) one bound counter


def test_the_fused_hit_and_access_bump_one_bound_tload_counter(access_calls):
    machine = _machine()
    address = _put_in_state(machine, LineState.E)
    _bare_transaction(machine, 0)
    l1 = machine.processors[0].l1
    bound = l1._access_counters[AccessKind.TLOAD]
    assert bound is machine.stats.counter("l1.access.TLoad")
    before = bound.value
    del access_calls[:]
    for _ in range(3):
        assert machine.tload(0, address).cycles == machine.params.l1_hit_cycles
    assert access_calls == [] and bound.value == before + 3
    # A miss goes through ``access`` and bumps the same object.
    machine.tload(0, machine.allocate_words(1, line_aligned=True))
    assert len(access_calls) == 1 and bound.value == before + 4
    assert l1._access_counters[AccessKind.TLOAD] is bound
    assert machine.stats.counter("l1.access.TLoad") is bound


def test_a_run_without_tstores_has_no_tstore_counter():
    machine = FlexTMMachine(small_test_params(2))
    base = machine.allocate_words(4, line_aligned=True)

    def reader(ctx):
        total = 0
        for word in range(4):
            total += yield from ctx.read(base + 8 * word)
        return total

    backend = FlexTMRuntime(machine)
    threads = [TxThread(t, backend, [WorkItem(reader)] * 3) for t in range(2)]
    result = Scheduler(machine, threads).run(20_000)
    assert result.commits == 6
    assert result.stats["l1.access.TLoad"] == 24
    assert "l1.access.TStore" not in result.stats
