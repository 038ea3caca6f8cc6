"""Machine-level operation semantics: CAS, CAS-Commit, PDI values."""

import pytest

from repro.coherence.states import LineState
from repro.core.machine import FlexTMMachine, MemoryOpResult
from repro.core.tsw import TxStatus
from repro.errors import ProtocolError
from repro.params import small_test_params
from tests.helpers import begin_hardware_transaction


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def test_cas_success_and_failure(m):
    address = m.allocate_words(1)
    m.store(0, address, 5)
    win = m.cas(1, address, 5, 9)
    assert win.success and win.value == 5
    lose = m.cas(2, address, 5, 11)
    assert not lose.success and lose.value == 9
    assert m.memory.read(address) == 9


def test_tload_tstore_require_transaction(m):
    address = m.allocate_words(1)
    with pytest.raises(ProtocolError):
        m.tload(0, address)
    with pytest.raises(ProtocolError):
        m.tstore(0, address, 1)


def test_speculative_value_private_until_commit(m):
    address = m.allocate_words(1)
    m.store(0, address, 5)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    # Own transactional read sees the speculative value.
    assert m.tload(0, address).value == 42
    # Global memory still holds the committed value.
    assert m.memory.read(address) == 5
    assert m.load(1, address).value == 5


def test_cas_commit_publishes_values_atomically(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 42)
    result = m.cas_commit(0)
    assert result.success
    assert m.memory.read(address) == 42
    line = m.processors[0].l1.array.peek(m.amap.line_of(address))
    assert line.state is LineState.M  # flash TMI -> M


def test_cas_commit_fails_when_cst_nonzero(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    begin_hardware_transaction(m, 1)
    m.tstore(0, address, 1)
    m.tload(1, address)  # sets proc0's W-R
    result = m.cas_commit(0)
    assert not result.success
    # TSW still active and speculative state preserved (Figure 3 loop).
    assert m.read_status(m.processors[0].current) is TxStatus.ACTIVE
    line = m.processors[0].l1.array.peek(m.amap.line_of(address))
    assert line.state is LineState.TMI


def test_cas_commit_flash_aborts_when_already_aborted(m):
    address = m.allocate_words(1)
    descriptor = begin_hardware_transaction(m, 0)
    m.tstore(0, address, 1)
    m.memory.write(descriptor.tsw_address, TxStatus.ABORTED)
    result = m.cas_commit(0)
    assert not result.success
    assert m.processors[0].l1.array.peek(m.amap.line_of(address)) is None
    assert m.memory.read(address) == 0  # speculation discarded


def test_enemy_cas_abort_triggers_alert_and_flash_abort(m):
    address = m.allocate_words(1)
    victim = begin_hardware_transaction(m, 1)
    m.tstore(1, address, 7)
    result = m.cas(0, victim.tsw_address, TxStatus.ACTIVE, TxStatus.ABORTED)
    assert result.success
    # Victim hardware reverted immediately; alert pending for software.
    assert m.processors[1].l1.array.peek(m.amap.line_of(address)) is None
    assert m.processors[1].alerts.pending
    assert victim.aborts == 1


def test_tsw_race_commit_beats_abort(m):
    """Coherence on the TSW line serializes CAS-Commit vs enemy CAS."""
    victim = begin_hardware_transaction(m, 1)
    assert m.cas_commit(1).success
    lose = m.cas(0, victim.tsw_address, TxStatus.ACTIVE, TxStatus.ABORTED)
    assert not lose.success
    assert m.read_status(victim) is TxStatus.COMMITTED


def test_overlay_cleared_after_commit(m):
    address = m.allocate_words(1)
    begin_hardware_transaction(m, 0)
    m.tstore(0, address, 9)
    m.cas_commit(0)
    assert m.processors[0].overlay == {}


def test_allocate_alignment(m):
    word = m.allocate_words(1)
    assert word % 8 == 0
    line = m.allocate(10, line_aligned=True)
    assert line % m.params.line_bytes == 0
    with pytest.raises(ValueError):
        m.allocate(0)


def test_distinct_allocations_do_not_overlap(m):
    a = m.allocate(100)
    b = m.allocate(100)
    assert b >= a + 100


def test_frameless_results_match_init_built_ones(m):
    """``tload``/``tstore``/``load`` build their success results without
    ``__init__``: every slot is set, and the repr is an ``__init__``-built
    result's with the same fields."""
    address = m.allocate_words(1)
    m.store(0, address, 5)
    begin_hardware_transaction(m, 1)
    results = [
        m.load(0, address),  # a hit
        m.load(2, m.allocate_words(1, line_aligned=True)),  # a miss
        m.tload(1, address),  # a miss with a conflict-free directory answer
        m.tload(1, address),  # the machine's clean hit
        m.tstore(1, address, 9),  # an upgrade through the directory
        m.tstore(1, address, 10),  # the machine's clean hit
    ]
    for result in results:
        assert type(result) is MemoryOpResult
        fields = {name: getattr(result, name) for name in MemoryOpResult.__slots__}
        assert repr(result) == repr(MemoryOpResult(**fields))
        assert fields["nacked"] is False and fields["success"] is False
    assert [result.value for result in results] == [5, 0, 5, 5, 9, 10]
    assert results[3].conflicts == () and results[5].conflicts == ()
