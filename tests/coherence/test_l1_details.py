"""L1 controller corner cases: AOU bits, flash sweeps, victim buffer."""

import pytest

from repro.coherence.messages import AccessKind
from repro.coherence.states import LineState
from repro.core.machine import FlexTMMachine
from repro.params import CacheGeometry, SystemParams
from tests.helpers import begin_hardware_transaction


def _params():
    return SystemParams(
        num_processors=2,
        l1=CacheGeometry(size_bytes=512, associativity=2, line_bytes=64),
        l2=CacheGeometry(size_bytes=64 * 1024, associativity=8, line_bytes=64),
        victim_buffer_entries=4,
    )


@pytest.fixture
def m():
    return FlexTMMachine(_params())


def test_aload_sets_and_arelease_clears_a_bit(m):
    address = m.allocate_words(1)
    m.aload(0, address)
    line = m.processors[0].l1.array.peek(m.amap.line_of(address))
    assert line.a_bit
    m.processors[0].l1.arelease(m.amap.line_of(address))
    assert not line.a_bit


def test_alert_on_remote_invalidation(m):
    address = m.allocate_words(1)
    m.aload(0, address)
    m.store(1, address, 5)  # remote GETX invalidates the marked line
    pending = m.processors[0].alerts.pending
    assert pending and pending[0].reason == "invalidated"


def test_alert_on_capacity_eviction(m):
    params = m.params
    address = m.allocate_words(1, line_aligned=True)
    m.aload(0, address)
    # Fill the set until the marked line is evicted.
    set_span = params.l1.num_sets * params.line_bytes
    for way in range(1, params.l1.associativity + 1):
        m.load(0, address + way * set_span)
    pending = m.processors[0].alerts.pending
    assert pending and pending[0].reason == "evicted"


def test_no_alert_without_mark(m):
    address = m.allocate_words(1)
    m.load(0, address)
    m.store(1, address, 5)
    assert not m.processors[0].alerts.pending


def test_remote_gets_keeps_local_shared_copy(m):
    address = m.allocate_words(1)
    m.load(0, address)
    m.load(1, address)
    line = m.processors[0].l1.array.peek(m.amap.line_of(address))
    assert line is not None and line.state is LineState.S


def test_ti_line_in_victim_buffer_cleared_on_commit(m):
    """The flash transforms must sweep the victim buffer too."""
    proc = m.processors[0]
    line_address = 0x4000 >> m.params.offset_bits
    proc.l1.victims.insert(line_address, LineState.TI)
    proc.l1.flash_commit()
    assert not proc.l1.victims.contains(line_address)


def test_ti_line_in_victim_buffer_cleared_on_abort(m):
    proc = m.processors[0]
    line_address = 0x4000 >> m.params.offset_bits
    proc.l1.victims.insert(line_address, LineState.TI)
    proc.l1.flash_abort()
    assert not proc.l1.victims.contains(line_address)


def test_tmi_to_victim_mode_commits_from_buffer():
    """The E7 'ideal machine': TMI evictions go to an unbounded victim
    buffer and commit by flash-transform, no OT involved."""
    machine = FlexTMMachine(_params(), tmi_to_victim=True)
    begin_hardware_transaction(machine, 0)
    base = machine.allocate(64 * 16, line_aligned=True)
    for index in range(12):
        machine.tstore(0, base + index * 64, index + 1)
    assert not machine.processors[0].ot.active  # OT never engaged
    assert machine.cas_commit(0).success
    for index in range(12):
        assert machine.memory.read(base + index * 64) == index + 1


def test_eviction_of_plain_lines_is_silent(m):
    address = m.allocate_words(1, line_aligned=True)
    m.load(0, address)
    silent_before = m.stats.counter("l1.silent_evictions").value
    set_span = m.params.l1.num_sets * m.params.line_bytes
    for way in range(1, m.params.l1.associativity + 1):
        m.load(0, address + way * set_span)
    assert m.stats.counter("l1.silent_evictions").value > silent_before
    # Directory still lists us (sticky until a forward notices).
    assert 0 in m.directory.owners_of(m.amap.line_of(address)) or (
        0 in m.directory.sharers_of(m.amap.line_of(address))
    )


def test_store_to_local_tmi_is_a_protocol_error(m):
    from repro.errors import ProtocolError

    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 1)
    with pytest.raises(ProtocolError):
        m.processors[0].l1.access(AccessKind.STORE, m.amap.line_of(address))
