"""Table-driven conformance against Figure 1's and Figure 3's tables.

For every (local state, processor operation) and (local state, remote
request) pair, build a small machine, place the line in the required
state at processor 0, apply the stimulus, and check the resulting local
state against the figure.  The response table, both sides of the CST
dual update, strong isolation, the grant install exception and the
flash transforms are checked the same way.

The expected values are transcribed from the paper by hand, not read
from ``repro.coherence.spec``: the controllers execute the spec's
tables, so this file is the independent reference for them.
"""

import pytest

from repro.coherence import spec, tables
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.states import LineState
from repro.core.machine import FlexTMMachine
from repro.errors import ProtocolError
from repro.params import small_test_params
from tests.helpers import begin_hardware_transaction


def _machine():
    return FlexTMMachine(small_test_params(4))


def _put_in_state(machine, state):
    """Drive processor 0's copy of a fresh line into ``state``."""
    address = machine.allocate_words(1, line_aligned=True)
    if state is LineState.E:
        machine.load(0, address)
    elif state is LineState.S:
        machine.load(0, address)
        machine.load(1, address)
    elif state is LineState.M:
        machine.store(0, address, 1)
    elif state is LineState.TMI:
        begin_hardware_transaction(machine, 0)
        machine.tstore(0, address, 1)
    elif state is LineState.TI:
        begin_hardware_transaction(machine, 1)
        machine.tstore(1, address, 1)
        begin_hardware_transaction(machine, 0)
        machine.tload(0, address)
    elif state is LineState.I:
        pass
    observed = _state_of(machine, 0, address)
    assert observed is state, f"setup failed: wanted {state}, got {observed}"
    return address


def _state_of(machine, proc, address):
    cached = machine.processors[proc].l1.array.peek(machine.amap.line_of(address))
    return cached.state if cached else LineState.I


def _directory_requests(machine):
    return sum(
        machine.stats.counter(f"dir.requests.{request.value}").value
        for request in RequestType
    )


def _ensure_txn(machine, proc):
    if machine.processors[proc].current is None:
        begin_hardware_transaction(machine, proc)


# (start state, op, expected state) — the local-operation half of Fig.1.
LOCAL_TRANSITIONS = [
    (LineState.I, AccessKind.LOAD, LineState.E),  # sole reader gets E
    (LineState.I, AccessKind.STORE, LineState.M),
    (LineState.I, AccessKind.TLOAD, LineState.E),
    (LineState.I, AccessKind.TSTORE, LineState.TMI),
    (LineState.S, AccessKind.LOAD, LineState.S),
    (LineState.S, AccessKind.TLOAD, LineState.S),
    (LineState.S, AccessKind.STORE, LineState.M),
    (LineState.S, AccessKind.TSTORE, LineState.TMI),
    (LineState.E, AccessKind.LOAD, LineState.E),
    (LineState.E, AccessKind.TLOAD, LineState.E),
    (LineState.E, AccessKind.STORE, LineState.M),  # silent upgrade
    (LineState.E, AccessKind.TSTORE, LineState.TMI),
    (LineState.M, AccessKind.LOAD, LineState.M),
    (LineState.M, AccessKind.TLOAD, LineState.M),
    (LineState.M, AccessKind.STORE, LineState.M),
    (LineState.M, AccessKind.TSTORE, LineState.TMI),  # with flush
    (LineState.TMI, AccessKind.LOAD, LineState.TMI),
    (LineState.TMI, AccessKind.TLOAD, LineState.TMI),
    (LineState.TMI, AccessKind.TSTORE, LineState.TMI),
    (LineState.TI, AccessKind.LOAD, LineState.TI),
    (LineState.TI, AccessKind.TLOAD, LineState.TI),
    (LineState.TI, AccessKind.STORE, LineState.M),
    (LineState.TI, AccessKind.TSTORE, LineState.TMI),
]

# The (start state, op) rows satisfied without a directory request.
LOCAL_HITS = {
    (LineState.S, AccessKind.LOAD),
    (LineState.S, AccessKind.TLOAD),
    (LineState.E, AccessKind.LOAD),
    (LineState.E, AccessKind.TLOAD),
    (LineState.E, AccessKind.STORE),
    (LineState.M, AccessKind.LOAD),
    (LineState.M, AccessKind.TLOAD),
    (LineState.M, AccessKind.STORE),
    (LineState.M, AccessKind.TSTORE),
    (LineState.TMI, AccessKind.LOAD),
    (LineState.TMI, AccessKind.TLOAD),
    (LineState.TMI, AccessKind.TSTORE),
    (LineState.TI, AccessKind.LOAD),
    (LineState.TI, AccessKind.TLOAD),
}

# (start state, op) pairs that are architecturally illegal.
LOCAL_ERRORS = [
    # A plain Store would overwrite the pre-speculative image.
    (LineState.TMI, AccessKind.STORE),
]


@pytest.mark.parametrize(
    "start,op,expected",
    LOCAL_TRANSITIONS,
    ids=[f"{s.name}-{o.value}" for s, o, e in LOCAL_TRANSITIONS],
)
def test_local_transition(start, op, expected):
    machine = _machine()
    address = _put_in_state(machine, start)
    if op.is_transactional:
        _ensure_txn(machine, 0)
    dispatch = {
        AccessKind.LOAD: machine.load,
        AccessKind.TLOAD: machine.tload,
    }
    requests = _directory_requests(machine)
    if op in dispatch:
        dispatch[op](0, address)
    elif op is AccessKind.STORE:
        machine.store(0, address, 9)
    else:
        machine.tstore(0, address, 9)
    assert _state_of(machine, 0, address) is expected
    local = _directory_requests(machine) == requests
    assert local == ((start, op) in LOCAL_HITS)


@pytest.mark.parametrize(
    "start,op", LOCAL_ERRORS, ids=[f"{s.name}-{o.value}" for s, o in LOCAL_ERRORS]
)
def test_illegal_local_access_raises(start, op):
    machine = _machine()
    address = _put_in_state(machine, start)
    with pytest.raises(ProtocolError):
        machine.processors[0].l1.access(op, machine.amap.line_of(address))
    assert _state_of(machine, 0, address) is start


# The access a requestor performs to send each request type.
_ACCESS_FOR = {
    RequestType.GETS: AccessKind.LOAD,
    RequestType.GETX: AccessKind.STORE,
    RequestType.TGETX: AccessKind.TSTORE,
}

# (holder state, remote request, expected holder state) — remote half.
# Requests issue from processor 2 (processor 1 may be a TI/TMI party)
# straight through its L1, so a plain GETX is seen as the coherence
# message alone, before the machine's strong-isolation abort.
REMOTE_TRANSITIONS = [
    (LineState.I, RequestType.GETS, LineState.I),
    (LineState.I, RequestType.GETX, LineState.I),
    (LineState.I, RequestType.TGETX, LineState.I),
    (LineState.S, RequestType.GETS, LineState.S),
    (LineState.S, RequestType.GETX, LineState.I),
    (LineState.S, RequestType.TGETX, LineState.I),
    (LineState.E, RequestType.GETS, LineState.S),
    (LineState.E, RequestType.GETX, LineState.I),
    (LineState.E, RequestType.TGETX, LineState.I),
    (LineState.M, RequestType.GETS, LineState.S),  # with flush
    (LineState.M, RequestType.GETX, LineState.I),  # with flush
    (LineState.M, RequestType.TGETX, LineState.I),
    (LineState.TMI, RequestType.GETS, LineState.TMI),  # never yields
    (LineState.TMI, RequestType.GETX, LineState.TMI),
    (LineState.TMI, RequestType.TGETX, LineState.TMI),
    (LineState.TI, RequestType.GETX, LineState.I),
    (LineState.TI, RequestType.TGETX, LineState.I),
    (LineState.TI, RequestType.GETS, LineState.TI),
]


@pytest.mark.parametrize(
    "holder,request_type,expected",
    REMOTE_TRANSITIONS,
    ids=[f"{h.name}-{r.value}" for h, r, e in REMOTE_TRANSITIONS],
)
def test_remote_transition(holder, request_type, expected):
    machine = _machine()
    address = _put_in_state(machine, holder)
    line = machine.amap.line_of(address)
    if holder is LineState.I:
        # Listed at the directory without a copy (a silent eviction
        # whose victim-buffer entry is gone), so the request reaches it.
        machine.load(0, address)
        machine.processors[0].l1.array.remove(line)
    machine.processors[2].l1.access(_ACCESS_FOR[request_type], line)
    assert _state_of(machine, 0, address) is expected


# (signature hit at the responder, request, response) — Figure 1's
# response table.
RESPONSES = [
    ("wsig", RequestType.GETS, ResponseKind.THREATENED),
    ("wsig", RequestType.GETX, ResponseKind.THREATENED),
    ("wsig", RequestType.TGETX, ResponseKind.THREATENED),
    ("rsig_only", RequestType.GETS, ResponseKind.SHARED),
    ("rsig_only", RequestType.GETX, ResponseKind.INVALIDATED),
    ("rsig_only", RequestType.TGETX, ResponseKind.EXPOSED_READ),
]


def _responder(machine, category):
    """Processor 0 runs a transaction whose Wsig or Rsig holds a line."""
    begin_hardware_transaction(machine, 0)
    address = machine.allocate_words(1, line_aligned=True)
    if category == "wsig":
        machine.tstore(0, address, 1)
    else:
        machine.tload(0, address)
    return address


def test_response_table():
    """Figure 1's signature-response table, all six cells."""
    for category, request, expected in RESPONSES:
        machine = _machine()
        address = _responder(machine, category)
        kind = machine.processors[0].classify_remote(
            2, request, machine.amap.line_of(address)
        )
        assert kind is expected, (category, request)


def _cst_bits(processor):
    csts = processor.csts
    return {"r_w": csts.r_w.value, "w_r": csts.w_r.value, "w_w": csts.w_w.value}


def _transactional_request(machine, proc, access, address):
    begin_hardware_transaction(machine, proc)
    if access is AccessKind.TLOAD:
        return machine.tload(proc, address)
    return machine.tstore(proc, address, 7)


# (responder's signature hit, request, responder CST naming the requestor)
RESPONDER_CSTS = [
    ("wsig", RequestType.GETS, "w_r"),
    ("wsig", RequestType.TGETX, "w_w"),
    ("rsig_only", RequestType.TGETX, "r_w"),
]


@pytest.mark.parametrize(
    "category,request_type,cst",
    RESPONDER_CSTS,
    ids=[f"{c}-{r.value}" for c, r, _ in RESPONDER_CSTS],
)
def test_responder_cst(category, request_type, cst):
    machine = _machine()
    address = _responder(machine, category)
    access = AccessKind.TLOAD if request_type is RequestType.GETS else AccessKind.TSTORE
    _transactional_request(machine, 2, access, address)
    responder = machine.processors[0]
    expected = {"r_w": 0, "w_r": 0, "w_w": 0}
    expected[cst] = 1 << 2
    assert _cst_bits(responder) == expected
    # W-R and W-W conflicts name a partner for Figure 4's table.
    assert (2 in responder.conflict_partners) == (cst != "r_w")


# (requestor's access, response it receives, requestor CST naming the
# responder) — the mirrored half of the dual update.
REQUESTER_CSTS = [
    (AccessKind.TLOAD, ResponseKind.THREATENED, "r_w"),
    (AccessKind.TSTORE, ResponseKind.THREATENED, "w_w"),
    (AccessKind.TSTORE, ResponseKind.EXPOSED_READ, "w_r"),
]


@pytest.mark.parametrize(
    "access,response,cst",
    REQUESTER_CSTS,
    ids=[f"{a.value}-{r.value}" for a, r, _ in REQUESTER_CSTS],
)
def test_requester_cst(access, response, cst):
    machine = _machine()
    category = "wsig" if response is ResponseKind.THREATENED else "rsig_only"
    address = _responder(machine, category)
    result = _transactional_request(machine, 2, access, address)
    assert result.conflicts == [(0, response)]
    requester = machine.processors[2]
    expected = {"r_w": 0, "w_r": 0, "w_w": 0}
    expected[cst] = 1 << 0
    assert _cst_bits(requester) == expected
    assert (0 in requester.conflict_partners) == (cst != "r_w")


# (responder's signature hit, response) for a plain GETX: strong
# isolation aborts the responder instead of recording a conflict.
STRONG_ISOLATION = [
    ("wsig", ResponseKind.THREATENED),
    ("rsig_only", ResponseKind.INVALIDATED),
]


@pytest.mark.parametrize(
    "category,response", STRONG_ISOLATION, ids=[c for c, _ in STRONG_ISOLATION]
)
def test_strong_isolation_sets_no_cst(category, response):
    machine = _machine()
    address = _responder(machine, category)
    line = machine.amap.line_of(address)
    requester = machine.processors[2]
    result = requester.l1.access(AccessKind.STORE, line)
    assert result.conflicts == [(0, response)]
    requester.note_request_conflicts(AccessKind.STORE, result.conflicts)
    empty = {"r_w": 0, "w_r": 0, "w_w": 0}
    assert _cst_bits(machine.processors[0]) == empty
    assert _cst_bits(requester) == empty
    # The machine's plain store resolves the conflict by aborting.
    machine.store(3, address, 5)
    assert machine.processors[0].current.wounded_by == 3


# (access, granted state, installed state): grants the requestor does
# not install as granted.
GRANT_INSTALLS = [
    (AccessKind.LOAD, LineState.TI, LineState.I),
]


@pytest.mark.parametrize(
    "access,granted,installed",
    GRANT_INSTALLS,
    ids=[f"{a.value}-{g.name}" for a, g, _ in GRANT_INSTALLS],
)
def test_grant_install_exception(access, granted, installed):
    """A plain Load granted TI reads the committed value uncached."""
    machine = _machine()
    begin_hardware_transaction(machine, 1)
    address = machine.allocate_words(1, line_aligned=True)
    machine.tstore(1, address, 1)  # a remote TMI copy: GETS grants TI
    result = machine.processors[0].l1.access(access, machine.amap.line_of(address))
    assert result.threatened_uncached
    assert result.state is installed
    assert _state_of(machine, 0, address) is installed


# (state, after flash commit, after flash abort) — Figure 3.
FLASH_TRANSFORMS = [
    (LineState.I, LineState.I, LineState.I),
    (LineState.S, LineState.S, LineState.S),
    (LineState.E, LineState.E, LineState.E),
    (LineState.M, LineState.M, LineState.M),
    (LineState.TMI, LineState.M, LineState.I),  # speculation becomes real
    (LineState.TI, LineState.I, LineState.I),  # copy may be stale
]


@pytest.mark.parametrize(
    "start,committed,aborted",
    FLASH_TRANSFORMS,
    ids=[s.name for s, _, _ in FLASH_TRANSFORMS],
)
def test_flash_transform(start, committed, aborted):
    for flash, expected in (("flash_commit", committed), ("flash_abort", aborted)):
        machine = _machine()
        address = _put_in_state(machine, start)
        getattr(machine.processors[0].l1, flash)()
        assert _state_of(machine, 0, address) is expected, flash


def test_case_lists_cover_every_spec_cell():
    local = {(op.value, start.name) for start, op, _ in LOCAL_TRANSITIONS}
    errors = {(op.value, start.name) for start, op in LOCAL_ERRORS}
    assert local | errors == set(spec.LOCAL_DISPATCH)
    assert {(op.value, start.name) for start, op in LOCAL_HITS} == {
        cell for cell, outcome in spec.LOCAL_DISPATCH.items() if outcome == "local"
    }
    assert errors == {
        cell for cell, outcome in spec.LOCAL_DISPATCH.items() if outcome == "error"
    }
    assert {(r.value, h.name) for h, r, _ in REMOTE_TRANSITIONS} == set(
        spec.REMOTE_NEXT_STATE
    )
    assert {(r.value, c) for c, r, _ in RESPONSES} == set(spec.RESPONSE_TABLE)
    assert {(r.value, c) for c, r, _ in RESPONDER_CSTS} == set(spec.RESPONDER_CST)
    assert {(a.value, r.value) for a, r, _ in REQUESTER_CSTS} == set(
        spec.REQUESTER_CST
    )
    assert {("GETX", c) for c, _ in STRONG_ISOLATION} == set(
        spec.STRONG_ISOLATION_ABORTS
    )
    assert {(a.value, g.name) for a, g, _ in GRANT_INSTALLS} == set(spec.GRANT_INSTALL)
    assert {s.name for s, _, _ in FLASH_TRANSFORMS} == set(spec.COMMIT_TRANSFORM)
    assert {s.name for s, _, _ in FLASH_TRANSFORMS} == set(spec.ABORT_TRANSFORM)


def test_machine_follows_a_patched_table_cell(monkeypatch):
    """The compiled tables are live: the machine obeys a patched cell."""
    monkeypatch.setitem(
        tables.REMOTE_NEXT_STATE, (RequestType.GETS, LineState.E), LineState.I
    )
    machine = _machine()
    address = _put_in_state(machine, LineState.E)
    machine.load(2, address)
    # Figure 1 demotes E to S on a remote GETS; the patched cell drops it.
    assert _state_of(machine, 0, address) is LineState.I


def test_machine_follows_a_patched_grant_install_cell(monkeypatch):
    """The L1 installs what a patched ``GRANT_INSTALL`` cell names."""
    monkeypatch.setitem(
        tables.GRANT_INSTALL, (AccessKind.LOAD, LineState.E), LineState.S
    )
    machine = _machine()
    address = machine.allocate_words(1, line_aligned=True)
    machine.load(0, address)
    # Figure 1 installs the E grant of a sole reader; the patched cell
    # installs S instead.
    assert _state_of(machine, 0, address) is LineState.S


def test_directory_follows_a_patched_grant_rule(monkeypatch):
    """The directory grants what a patched ``GRANT_RULES`` entry names."""
    monkeypatch.setitem(
        tables.GRANT_RULES,
        RequestType.GETS,
        ((lambda entry, responses: True, LineState.S),),
    )
    machine = _machine()
    address = machine.allocate_words(1, line_aligned=True)
    machine.load(0, address)
    line = machine.amap.line_of(address)
    # Figure 1 grants E to a sole reader and lists it as an owner; the
    # patched rule grants S, so the reader is listed as a sharer.
    assert _state_of(machine, 0, address) is LineState.S
    assert machine.directory.sharers_of(line) == [0]
    assert machine.directory.owners_of(line) == []


def test_l1_follows_a_patched_local_next_state_cell(monkeypatch):
    """The local dispatch moves a line where a patched
    ``LOCAL_NEXT_STATE`` cell says.

    The cell is M --TStore--> TMI, which the dispatch reads on every
    access: the clean-hit cells are compiled into ``CLEAN_HITS`` at
    import, and this one is not among them.
    """
    monkeypatch.setitem(
        tables.LOCAL_NEXT_STATE, (AccessKind.TSTORE, LineState.M), LineState.M
    )
    machine = _machine()
    address = _put_in_state(machine, LineState.M)
    _ensure_txn(machine, 0)
    machine.tstore(0, address, 2)
    # Figure 1 flushes the line and moves it to TMI; the patched cell
    # leaves it in M, with no flush.
    assert _state_of(machine, 0, address) is LineState.M
    assert machine.stats.counter("l1.m_to_tmi_flush").value == 0


@pytest.mark.parametrize(
    "enum_cls", [LineState, AccessKind, RequestType, ResponseKind],
    ids=lambda cls: cls.__name__,
)
def test_protocol_enums_hash_by_identity(enum_cls):
    """Members hash with ``object.__hash__``, which runs in C, so an
    enum-keyed table lookup runs no Python-level ``Enum.__hash__``."""
    assert enum_cls.__hash__ is object.__hash__
    for member in enum_cls:
        assert hash(member) == object.__hash__(member)
