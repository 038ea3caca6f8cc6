"""The transaction boundary and the directory's miss-path decisions.

* Rsig, Wsig (word and foreign flag) and the three CSTs read zero after
  every boundary that flash-clears them, including a signature made
  foreign by ``union`` and the new registers that
  ``restore_transactional_state`` swaps in.  Every field of each
  register then equals that of a copy cleared by the register's own
  ``clear`` and that of a freshly built register, so a field that
  ``clear`` resets cannot be missed by the processor's reset.
* A ``CacheLine`` built in a state indexes itself as the ``state``
  setter would.
* The directory's grant, for every request with and without a
  threatening response and with and without holders left, is the first
  ``GRANT_RULES`` rule whose condition holds.
* The directory's summary hook is attached exactly while the summary
  signatures hold a suspended transaction.
"""

import copy

import pytest

from repro.coherence import tables
from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import RequestType, ResponseKind
from repro.coherence.states import LineState
from repro.core.cst import CstRegister
from repro.core.descriptor import RunState
from repro.core.machine import FlexTMMachine
from repro.memory.cache import CacheLine
from repro.params import small_test_params
from repro.signatures.bloom import Signature
from repro.signatures.hashing import make_hash_family
from tests.helpers import begin_hardware_transaction

# ------------------------------------------------------------ register reset


def _dirty_registers(proc) -> None:
    """Fill Rsig and Wsig, make Rsig foreign, and set every CST."""
    params = proc.params
    proc.rsig.insert(5)
    proc.wsig.insert(7)
    other = Signature(
        params.signature_bits,
        params.signature_hashes,
        family=make_hash_family(params.signature_bits, params.signature_hashes, seed=0xBEEF),
    )
    other.insert(3)
    proc.rsig.union(other)
    assert proc.rsig._foreign
    proc.csts.r_w.set(1)
    proc.csts.w_r.set(2)
    proc.csts.w_w.set(3)


def _registers(proc) -> tuple:
    csts = proc.csts
    return (proc.rsig, proc.wsig, csts.r_w, csts.w_r, csts.w_w)


def _fields(register) -> dict:
    """Every field of a register: its ``__dict__`` or its ``__slots__``."""
    slots = getattr(type(register), "__slots__", None)
    if slots is None:
        return dict(vars(register))
    return {name: getattr(register, name) for name in slots}


def _fresh(register):
    if isinstance(register, Signature):
        return Signature(register.bits, register.num_hashes, family=register.family)
    return CstRegister(register.name, register.width)


def _cleared_twins(proc) -> list:
    """Copies of the registers as they stand, each cleared by its own method."""
    twins = [copy.copy(register) for register in _registers(proc)]
    for twin in twins:
        twin.clear()
    return twins


def _assert_clear(proc, twins) -> None:
    for sig in (proc.rsig, proc.wsig):
        assert sig.word == 0
        assert sig._foreign is False
    for cst in (proc.csts.r_w, proc.csts.w_r, proc.csts.w_w):
        assert cst._bits == 0
    for register, twin in zip(_registers(proc), twins):
        assert _fields(register) == _fields(twin)
        assert _fields(register) == _fields(_fresh(register))


#: Each boundary that flash-clears the registers, applied to a processor.
BOUNDARIES = {
    "begin_transaction": lambda proc: proc.begin_transaction(proc.current),
    "flash_commit": lambda proc: proc.flash_commit(proc.clock.now),
    "flash_abort": lambda proc: proc.flash_abort(),
    "save_transactional_state": lambda proc: proc.save_transactional_state(),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_zeroes_every_register(boundary):
    machine = FlexTMMachine(small_test_params(4))
    begin_hardware_transaction(machine, 0)
    proc = machine.processors[0]
    address = machine.allocate_words(1, line_aligned=True)
    machine.tstore(0, address, 9)
    _dirty_registers(proc)
    twins = _cleared_twins(proc)
    BOUNDARIES[boundary](proc)
    _assert_clear(proc, twins)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_zeroes_the_registers_a_restore_swapped_in(boundary):
    machine = FlexTMMachine(small_test_params(4))
    descriptor = begin_hardware_transaction(machine, 0)
    proc = machine.processors[0]
    address = machine.allocate_words(1, line_aligned=True)
    machine.tstore(0, address, 9)
    _dirty_registers(proc)
    old_rsig, old_wsig = proc.rsig, proc.wsig
    saved = proc.save_transactional_state()
    proc.restore_transactional_state(descriptor, saved)
    assert proc.rsig is not old_rsig and proc.wsig is not old_wsig
    assert proc.rsig.word and proc.rsig._foreign and proc.wsig.word
    assert proc.csts.w_w._bits
    twins = _cleared_twins(proc)
    BOUNDARIES[boundary](proc)
    _assert_clear(proc, twins)
    # The saved copies are the transaction's, not the hardware's.
    assert saved.rsig.word and saved.rsig._foreign and saved.wsig.word
    assert saved.csts == {"r_w": 1 << 1, "w_r": 1 << 2, "w_w": 1 << 3}


@pytest.mark.parametrize("state", list(LineState), ids=lambda s: s.name)
def test_a_constructed_line_indexes_itself_as_the_setter_would(state):
    old = object()
    built_index = {0x40: old}
    built = CacheLine(0x40, state, 3, built_index)
    set_index = {0x40: old}
    via_setter = CacheLine(0x40, LineState.I, 3, set_index)
    via_setter.state = state
    # A T-state line replaces the stale entry with itself; any other
    # state removes it.
    expected = {0x40: built} if state.is_transactional else {}
    assert built_index == expected
    assert set_index == ({0x40: via_setter} if state.is_transactional else {})
    fields = [name for name in CacheLine.__slots__ if name != "_t_index"]
    assert [getattr(built, name) for name in fields] == [
        getattr(via_setter, name) for name in fields
    ]


# ------------------------------------------------------------- grant rules

_REQUESTOR = 0
_HOLDER = 1


class _ForwardStub:
    """A holder's L1 that answers every forward the same way."""

    def __init__(self, kind, retained):
        self.answer = (kind, retained)

    def handle_forwarded(self, requestor, req_type, line_address):
        return self.answer


def _first_match(req_type, entry, responses):
    """Reference: call every condition in order, ``otherwise`` included."""
    for condition, grant in tables.GRANT_RULES[req_type]:
        if condition(entry, responses):
            return grant
    raise AssertionError("no grant rule matched")


@pytest.mark.parametrize("req_type", list(RequestType), ids=lambda r: r.value)
@pytest.mark.parametrize("threatened", [False, True], ids=["calm", "threatened"])
@pytest.mark.parametrize("holders", [False, True], ids=["no-holders", "holders"])
def test_grant_is_the_first_matching_rule(req_type, threatened, holders):
    params = small_test_params(4)
    directory = Directory(params)
    kind = ResponseKind.THREATENED if threatened else None
    # A holder that is not retained (and not sticky) is pruned by the
    # forward, so the grant sees no holders left.
    directory.l1s = [_ForwardStub(None, True)] + [
        _ForwardStub(kind, holders) for _ in range(params.num_processors - 1)
    ]
    line = 0x40
    if holders or threatened:
        directory._entries[line] = DirectoryEntry(sharers=1 << _HOLDER)
    outcome = directory.request(_REQUESTOR, req_type, line)
    responses = [(_HOLDER, kind)] if threatened else []
    assert outcome.responses == responses
    left = DirectoryEntry(sharers=(1 << _HOLDER) if holders else 0)
    assert outcome.grant is _first_match(req_type, left, responses)
    entry = directory.peek_entry(line)
    if outcome.grant in (LineState.E, LineState.M, LineState.TMI):
        assert entry.is_owner(_REQUESTOR) and not entry.is_sharer(_REQUESTOR)
    else:
        assert entry.is_sharer(_REQUESTOR) and not entry.is_owner(_REQUESTOR)


def test_grant_conditions_answer_as_their_spec_names_say():
    """The reference above calls the conditions; this checks them."""
    threatened = tables._GRANT_CONDITIONS["threatened"]
    no_holders = tables._GRANT_CONDITIONS["no_holders"]
    otherwise = tables._GRANT_CONDITIONS["otherwise"]
    assert otherwise is tables.otherwise
    for sharers, owners in [(0, 0), (1, 0), (0, 4), (3, 4)]:
        entry = DirectoryEntry(sharers=sharers, owners=owners)
        assert no_holders(entry, []) is entry.empty
        for responses in ([], [(1, ResponseKind.SHARED)],
                          [(1, ResponseKind.SHARED), (2, ResponseKind.THREATENED)],
                          [(3, ResponseKind.EXPOSED_READ)]):
            expected = any(kind is ResponseKind.THREATENED for _, kind in responses)
            assert threatened(entry, responses) is expected
            assert otherwise(entry, responses) is True


# ------------------------------------------------------------ summary hook


def _suspend(machine, proc_id):
    proc = machine.processors[proc_id]
    descriptor = proc.current
    descriptor.run_state = RunState.SUSPENDED
    saved = proc.save_transactional_state()
    descriptor.saved = saved
    machine.summary.install(descriptor.thread_id, saved.rsig, saved.wsig, proc_id)
    machine.register_suspended(descriptor)
    return descriptor


def _hook_attached(machine) -> bool:
    hook = machine.directory.summary_conflict_check
    if hook is None:
        return False
    assert hook == machine._summary_conflict_check
    return True


def test_summary_hook_attached_exactly_while_a_thread_is_suspended():
    machine = FlexTMMachine(small_test_params(4))
    summary = machine.summary
    assert not summary.suspended_threads() and not _hook_attached(machine)
    address = machine.allocate_words(1, line_aligned=True)
    for proc_id in (0, 1):
        begin_hardware_transaction(machine, proc_id)
        machine.tstore(proc_id, address + 64 * proc_id, proc_id)
        _suspend(machine, proc_id)
        assert _hook_attached(machine)
    # Removing a thread twice, or one never installed, changes nothing.
    for thread_id in (0, 0, 1, 7):
        summary.remove(thread_id)
        assert _hook_attached(machine) is bool(summary.suspended_threads())
    assert not _hook_attached(machine)


def test_a_suspended_writer_still_traps_a_reader_through_the_hook():
    machine = FlexTMMachine(small_test_params(4))
    address = machine.allocate_words(1, line_aligned=True)
    begin_hardware_transaction(machine, 0)
    machine.tstore(0, address, 42)
    _suspend(machine, 0)
    assert _hook_attached(machine)
    begin_hardware_transaction(machine, 1)
    traps = machine.stats.counter("summary.traps").value
    machine.tload(1, address)
    assert machine.stats.counter("summary.traps").value == traps + 1
