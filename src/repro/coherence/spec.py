"""Machine-readable TMESI protocol specification (Figure 1 / Figure 3).

The tables in this module transcribe the paper's protocol figures
(Shriraman et al., TR #925 / ISCA 2008) into data.  They are the
protocol's only description:

* the simulator executes them: :mod:`repro.coherence.tables` compiles
  them at import into enum-keyed dicts that the L1, processor and
  directory controllers look every protocol decision up in, and
  :class:`~repro.coherence.states.LineState` reads its encoding and
  flash transforms from here;
* the model checker (:mod:`repro.analysis.modelcheck`) explores every
  interleaving of the same tables;
* ``tests/coherence/test_figure1_conformance.py`` checks every cell
  against a hand transcription of the paper on the real machine.

Everything is expressed over plain strings (state / message / access
names), so the spec imports nothing from the implementation and the
model checker can explore mutated copies of it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

# --------------------------------------------------------------------------- #
# Vocabulary

#: The six stable L1 states of Figure 1.
STATES: Tuple[str, ...] = ("I", "S", "E", "M", "TMI", "TI")

#: Processor-side memory operations.
ACCESSES: Tuple[str, ...] = ("Load", "Store", "TLoad", "TStore")

#: L1 -> directory request messages (Section 3.3).
REQUESTS: Tuple[str, ...] = ("GETS", "GETX", "TGETX")

#: Signature-qualified responses a remote L1 can return.
RESPONSES: Tuple[str, ...] = ("Shared", "Invalidated", "Threatened", "Exposed-Read")

# --------------------------------------------------------------------------- #
# Figure 1: the (M, V, T) hardware encoding table.

ENCODINGS: Dict[str, Tuple[int, int, int]] = {
    "I": (0, 0, 0),
    "S": (0, 1, 0),
    "M": (1, 0, 0),
    "E": (1, 1, 0),
    "TMI": (1, 0, 1),
    "TI": (0, 0, 1),
}

#: State predicates over Figure 1's encoding (the model checker's
#: SIM-M402 check derives them from the (M, V, T) bits).
STATE_PREDICATES: Dict[str, FrozenSet[str]] = {
    "is_valid": frozenset({"S", "E", "M", "TMI", "TI"}),
    "is_transactional": frozenset({"TMI", "TI"}),  # T bit set
    "readable": frozenset({"S", "E", "M", "TMI", "TI"}),
    "writable": frozenset({"E", "M"}),
    "tstore_hits": frozenset({"TMI"}),
}

#: Access-kind predicates (``AccessKind`` properties).
ACCESS_PREDICATES: Dict[str, FrozenSet[str]] = {
    "is_transactional": frozenset({"TLoad", "TStore"}),
    "is_write": frozenset({"Store", "TStore"}),
}

#: Request-type predicates (``RequestType`` properties).
REQUEST_PREDICATES: Dict[str, FrozenSet[str]] = {
    "is_exclusive": frozenset({"GETX", "TGETX"}),
}

# --------------------------------------------------------------------------- #
# Local access dispatch: what the L1 must do for every
# (access kind x stable state) pair.  Outcome vocabulary:
#
# ``local``    satisfied without a directory request (plain hits, the
#              silent E->M Store upgrade, the TMI TStore hit, and the
#              M --TStore/Flush--> TMI transition of Figure 1);
# ``request``  a directory request is issued (misses and upgrades that
#              need new permissions — GETS / GETX / TGETX);
# ``error``    architecturally illegal; the controller must raise
#              (a non-transactional Store hitting a local TMI line
#              would corrupt the pre-speculative image).

LOCAL_DISPATCH: Dict[Tuple[str, str], str] = {
    # Load: any valid copy satisfies it (TMI sees its own speculation,
    # TI holds the pre-speculative value).
    ("Load", "I"): "request",
    ("Load", "S"): "local",
    ("Load", "E"): "local",
    ("Load", "M"): "local",
    ("Load", "TMI"): "local",
    ("Load", "TI"): "local",
    # TLoad: identical hit behaviour; misses go out as GETS.
    ("TLoad", "I"): "request",
    ("TLoad", "S"): "local",
    ("TLoad", "E"): "local",
    ("TLoad", "M"): "local",
    ("TLoad", "TMI"): "local",
    ("TLoad", "TI"): "local",
    # Store: E upgrades silently to M; S/TI need a GETX upgrade;
    # a Store to a local TMI line is a protocol violation.
    ("Store", "I"): "request",
    ("Store", "S"): "request",
    ("Store", "E"): "local",
    ("Store", "M"): "local",
    ("Store", "TMI"): "error",
    ("Store", "TI"): "request",
    # TStore: TMI hits; M flushes the non-speculative value and flips
    # to TMI locally (Figure 1's "TStore/Flush" arc); everything else
    # issues TGETX.
    ("TStore", "I"): "request",
    ("TStore", "S"): "request",
    ("TStore", "E"): "request",
    ("TStore", "M"): "local",
    ("TStore", "TMI"): "local",
    ("TStore", "TI"): "request",
}

#: The stable state a ``local`` dispatch outcome leaves behind, for
#: every ``local`` cell of :data:`LOCAL_DISPATCH`.  Only two arcs of
#: Figure 1 change state locally: the silent E->M Store upgrade and the
#: M --TStore/Flush--> TMI transition; every other local hit keeps its
#: state.  The model checker (``repro.analysis.modelcheck``) consumes
#: this table verbatim.
LOCAL_NEXT_STATE: Dict[Tuple[str, str], str] = {
    ("Load", "S"): "S",
    ("Load", "E"): "E",
    ("Load", "M"): "M",
    ("Load", "TMI"): "TMI",
    ("Load", "TI"): "TI",
    ("TLoad", "S"): "S",
    ("TLoad", "E"): "E",
    ("TLoad", "M"): "M",
    ("TLoad", "TMI"): "TMI",
    ("TLoad", "TI"): "TI",
    ("Store", "E"): "M",
    ("Store", "M"): "M",
    ("TStore", "M"): "TMI",
    ("TStore", "TMI"): "TMI",
}

#: Which directory request a miss (state I) issues per access kind.
MISS_REQUESTS: Dict[str, str] = {
    "Load": "GETS",
    "TLoad": "GETS",
    "Store": "GETX",
    "TStore": "TGETX",
}

# --------------------------------------------------------------------------- #
# Remote (forwarded-request) dispatch: the responder-side next state for
# every (request x current state) pair.  TMI lines never yield their
# speculative data; exclusive requests invalidate every other state;
# GETS demotes M/E to S and leaves S/TI untouched.

REMOTE_NEXT_STATE: Dict[Tuple[str, str], str] = {
    ("GETS", "I"): "I",
    ("GETS", "S"): "S",
    ("GETS", "E"): "S",
    ("GETS", "M"): "S",
    ("GETS", "TMI"): "TMI",
    ("GETS", "TI"): "TI",
    ("GETX", "I"): "I",
    ("GETX", "S"): "I",
    ("GETX", "E"): "I",
    ("GETX", "M"): "I",
    ("GETX", "TMI"): "TMI",
    ("GETX", "TI"): "I",
    ("TGETX", "I"): "I",
    ("TGETX", "S"): "I",
    ("TGETX", "E"): "I",
    ("TGETX", "M"): "I",
    ("TGETX", "TMI"): "TMI",
    ("TGETX", "TI"): "I",
}

# --------------------------------------------------------------------------- #
# Figure 1's signature response table.  The responder consults Wsig
# first (a Wsig hit always answers Threatened); an Rsig-only hit
# qualifies by request type.  ``None`` = no signature response.

SIGNATURE_CATEGORIES: Tuple[str, ...] = ("wsig", "rsig_only", "none")

RESPONSE_TABLE: Dict[Tuple[str, str], str] = {
    ("GETS", "wsig"): "Threatened",
    ("GETX", "wsig"): "Threatened",
    ("TGETX", "wsig"): "Threatened",
    ("GETS", "rsig_only"): "Shared",
    ("GETX", "rsig_only"): "Invalidated",
    ("TGETX", "rsig_only"): "Exposed-Read",
}

# --------------------------------------------------------------------------- #
# CST dual-update pairing (Figure 3 / Section 3.4).  Conflict responses
# set Conflict Summary Table bits on *both* sides of the exchange:
#
# * the responder records the requestor in one of its CSTs inside
#   ``classify_remote`` (keyed by which signature hit and the request
#   type);
# * the requestor records the responder in the mirrored CST when the
#   response arrives, inside ``note_request_conflicts`` (keyed by its
#   access kind and the response kind).
#
# A ``None`` CST means that path must NOT touch any CST: strong
# isolation on plain GETX aborts the responder outright instead of
# recording a conflict, and Shared/Invalidated responses carry no
# transactional conflict for the requestor.

#: (request, signature category) -> responder CST holding the requestor.
RESPONDER_CST: Dict[Tuple[str, str], str] = {
    ("GETS", "wsig"): "w_r",
    ("TGETX", "wsig"): "w_w",
    ("TGETX", "rsig_only"): "r_w",
}

#: (access kind, response kind) -> requestor CST holding the responder.
REQUESTER_CST: Dict[Tuple[str, str], str] = {
    ("TLoad", "Threatened"): "r_w",
    ("TStore", "Threatened"): "w_w",
    ("TStore", "Exposed-Read"): "w_r",
}

#: Mirror relation of the dual update: when the responder sets table X
#: for a conflict, the requestor's matching update sets DUAL_CST[X].
DUAL_CST: Dict[str, str] = {"w_r": "r_w", "r_w": "w_r", "w_w": "w_w"}

#: Responses that carry a transactional conflict.  Every conflict
#: response must either be recorded in a CST (transactional requestor)
#: or resolved through a strong-isolation abort (plain requestor) —
#: anything else is a *lost* conflict, the SIM-M405 invariant.
CONFLICT_RESPONSES: FrozenSet[str] = frozenset(
    {"Threatened", "Invalidated", "Exposed-Read"}
)

#: Strong isolation (Section 3.5): a *non-transactional* writer's GETX
#: aborts every transactional conflict responder outright instead of
#: recording a CST bit — both the Wsig (Threatened) and Rsig-only
#: (Invalidated) paths.  Keys mirror :data:`RESPONSE_TABLE`.
STRONG_ISOLATION_ABORTS: FrozenSet[Tuple[str, str]] = frozenset(
    {("GETX", "wsig"), ("GETX", "rsig_only")}
)

# --------------------------------------------------------------------------- #
# Directory grants: the state granted to the requestor.  GETS grants TI
# when any responder answered Threatened (a remote TMI exists), E when
# the line had no holders, S otherwise; exclusivity is always granted
# for GETX/TGETX (conflicts are resolved through CSTs, not by stalling).

GRANTS: Dict[str, FrozenSet[str]] = {
    "GETS": frozenset({"TI", "E", "S"}),
    "GETX": frozenset({"M"}),
    "TGETX": frozenset({"TMI"}),
}

#: The GETS grant conditions, most specific first.
GETS_GRANT_RULES: Tuple[Tuple[str, str], ...] = (
    ("threatened", "TI"),
    ("no_holders", "E"),
    ("otherwise", "S"),
)

#: (access kind, granted state) -> state actually installed in the
#: requestor's L1.  Identity for every pair not listed; the one
#: exception is a *plain* Load granted TI: the threatened value is
#: consumed uncached (strong isolation keeps non-transactional reads
#: out of the speculative window), so the line stays I.
GRANT_INSTALL: Dict[Tuple[str, str], str] = {
    ("Load", "TI"): "I",
}

# --------------------------------------------------------------------------- #
# Figure 3: flash commit / abort transforms (CAS-Commit outcome sweeps
# every line in a single cycle; T bits clear either way).

COMMIT_TRANSFORM: Dict[str, str] = {
    "I": "I",
    "S": "S",
    "E": "E",
    "M": "M",
    "TMI": "M",  # speculative writes become the committed version
    "TI": "I",  # pre-speculative copy may now be stale
}

ABORT_TRANSFORM: Dict[str, str] = {
    "I": "I",
    "S": "S",
    "E": "E",
    "M": "M",
    "TMI": "I",  # speculation discarded
    "TI": "I",
}

# --------------------------------------------------------------------------- #
# Model-checker annotations: where exploration starts, what counts as
# quiescent, and the invariant catalog the SIM-M4xx rules verify
# (``repro.analysis.modelcheck`` / docs/ANALYSIS.md).

#: Every cache line starts invalid everywhere.
INITIAL_STATE: str = "I"

#: Line states legal in a quiescent (no in-flight request, no
#: transactional footprint) configuration — exactly the non-T-bit
#: states: TMI/TI only exist inside a transaction's lifetime.
FINAL_LINE_STATES: FrozenSet[str] = frozenset({"I", "S", "E", "M"})

#: The declared invariant catalog.  Each entry is one SIM-M rule the
#: exhaustive model checker verifies over every reachable interleaving
#: of the tables above (one line, N caches, a directory).
INVARIANTS: Dict[str, str] = {
    "SIM-M401": (
        "single-writer/multiple-readers: at most one cache holds the "
        "line M/E, and an M/E holder excludes remote S copies (TMI/TI "
        "are the sanctioned transactional exceptions)"
    ),
    "SIM-M402": (
        "encoding consistency: every state a transition produces is "
        "one of the six ENCODINGS states, the STATE_PREDICATES match "
        "the (M,V,T) bits, and every grant stays inside GRANTS"
    ),
    "SIM-M403": (
        "CST dual-update symmetry: when a conflict response sets a "
        "responder CST bit for a transactional requestor, the "
        "requestor simultaneously sets the intrinsically mirrored CST "
        "(w_r<->r_w, w_w<->w_w) naming the responder"
    ),
    "SIM-M404": (
        "responder/requester CST agreement: RESPONDER_CST, "
        "REQUESTER_CST and DUAL_CST name the same table pair for every "
        "conflict response a transactional requestor can receive"
    ),
    "SIM-M405": (
        "no lost conflict responses: every Threatened / Exposed-Read / "
        "Invalidated response is recorded in a CST or resolved by a "
        "strong-isolation abort — never silently dropped"
    ),
    "SIM-M406": (
        "TSW legality: a TMI line exists exactly while its owner's "
        "write signature is live, and a TI line implies a live read "
        "signature — T-bit states never survive commit/abort"
    ),
    "SIM-M407": (
        "quiescence/deadlock-freedom: every non-final reachable state "
        "has an enabled transition; no in-flight request can hit a "
        "missing dispatch cell and wedge"
    ),
}


def _check_internal_consistency() -> None:
    """Structural sanity of the tables themselves (import-time cheap)."""
    universe = set(STATES)
    for (access, state), outcome in LOCAL_DISPATCH.items():
        assert access in ACCESSES and state in universe, (access, state)
        assert outcome in ("local", "request", "error"), outcome
    assert set(LOCAL_DISPATCH) == {(a, s) for a in ACCESSES for s in STATES}
    assert set(REMOTE_NEXT_STATE) == {(r, s) for r in REQUESTS for s in STATES}
    # An absent line misses and has nothing to yield: the controllers
    # never look these cells up (an I line is not in the cache).
    for access in ACCESSES:
        assert LOCAL_DISPATCH[(access, INITIAL_STATE)] == "request", access
    for request in REQUESTS:
        assert REMOTE_NEXT_STATE[(request, INITIAL_STATE)] == INITIAL_STATE
    # The flash hardware acts on T-bit lines only, and so does the cache
    # array's flash, which visits just its TMI/TI lines.
    for state in sorted(FINAL_LINE_STATES):
        assert COMMIT_TRANSFORM[state] == state == ABORT_TRANSFORM[state], state
    for (request, category), response in RESPONSE_TABLE.items():
        assert request in REQUESTS and category in SIGNATURE_CATEGORIES
        assert response in RESPONSES
    # Dual-update symmetry: every responder-side CST update has exactly
    # one requestor-side mirror reachable through the access kind that
    # produced the request, and the tables agree through DUAL_CST.
    access_of_request = {"GETS": "TLoad", "TGETX": "TStore"}
    for (request, category), cst in RESPONDER_CST.items():
        access = access_of_request[request]
        response = RESPONSE_TABLE[(request, category)]
        mirrored = REQUESTER_CST.get((access, response))
        assert mirrored == DUAL_CST[cst], (request, category, cst, mirrored)
    for state, target in COMMIT_TRANSFORM.items():
        assert state in universe and target in universe
    for state, target in ABORT_TRANSFORM.items():
        assert state in universe and target in universe
    # Local next states: defined for exactly the "local" dispatch cells,
    # and only the two Figure 1 arcs change state.
    local_cells = {
        cell for cell, outcome in LOCAL_DISPATCH.items() if outcome == "local"
    }
    assert set(LOCAL_NEXT_STATE) == local_cells
    for (access, state), target in LOCAL_NEXT_STATE.items():
        assert target in universe, (access, state, target)
        if target != state:
            assert (access, state) in (("Store", "E"), ("TStore", "M"))
    # Grant installs name real grants and real states.
    for (access, granted), installed in GRANT_INSTALL.items():
        assert access in ACCESSES and installed in universe
        assert any(granted in states for states in GRANTS.values())
    # Strong isolation covers signature-qualified cells and never
    # overlaps a CST-recording path on the responder side.
    for pair in sorted(STRONG_ISOLATION_ABORTS):
        assert pair in RESPONSE_TABLE, pair
        assert pair not in RESPONDER_CST, pair
    assert CONFLICT_RESPONSES <= set(RESPONSES)
    # No lost conflicts, statically: every conflict response is
    # CST-recorded on at least one side or strong-isolation resolved.
    for (request, category), response in RESPONSE_TABLE.items():
        if response not in CONFLICT_RESPONSES:
            continue
        recorded = (request, category) in RESPONDER_CST
        resolved = (request, category) in STRONG_ISOLATION_ABORTS
        assert recorded or resolved, (request, category, response)
    assert INITIAL_STATE in universe
    assert FINAL_LINE_STATES == universe - STATE_PREDICATES["is_transactional"]
    assert sorted(INVARIANTS) == [f"SIM-M40{i}" for i in range(1, 8)]


_check_internal_consistency()
