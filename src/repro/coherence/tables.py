"""The :mod:`repro.coherence.spec` tables, compiled for the controllers.

``spec.py`` states the TMESI protocol as plain strings, which is what
the model checker explores.  This module rebuilds the same tables once,
at import, keyed by the protocol enums, and the controllers make every
protocol decision with a lookup here:

* ``L1Controller`` reads :data:`LOCAL_DISPATCH`, :data:`LOCAL_NEXT_STATE`,
  :data:`MISS_REQUESTS`, :data:`GRANT_INSTALL` and
  :data:`REMOTE_NEXT_STATE`;
* ``FlexTMProcessor`` reads :data:`RESPONSE_TABLE`,
  :data:`RESPONDER_CST` and :data:`REQUESTER_CST`;
* ``FlexTMMachine``'s summary handler (Section 5) answers for a
  descheduled transaction from :data:`RESPONSE_TABLE` and
  :data:`RESPONDER_CST`, and its trace labels read
  :data:`REQUESTER_CST` through :data:`CST_LABELS`;
* ``FlexTMRuntime`` names its wound kinds through :data:`CST_LABELS`;
* ``Directory`` reads :data:`GRANT_RULES`.

The flash transforms are compiled next to the enum, in
:mod:`repro.coherence.states`.  So the model checker verifies the
tables the simulator executes; there is no second copy to keep in sync.

Signature categories (``"wsig"``/``"rsig_only"``) and CST names
(``"r_w"``/``"w_r"``/``"w_w"``, the ``ConflictSummaryTables``
attributes) stay strings.

The protocol enums hash by identity (``__hash__ = object.__hash__``),
which runs in C, so a lookup keyed by members or pairs of members runs
no Python-level hash; the L1's clean hits read :data:`CLEAN_HITS` the
same way.  Tables keep their members in the order they were built:
dicts preserve insertion order.  A set of members has no fixed order
(identity hashes follow memory addresses), and SIM-D005 forbids
iterating one.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.coherence import spec
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.states import LineState

#: (access, state) -> "local" / "request" / "error".
LOCAL_DISPATCH: Dict[Tuple[AccessKind, LineState], str] = {
    (AccessKind(access), LineState(state)): outcome
    for (access, state), outcome in spec.LOCAL_DISPATCH.items()
}

#: (access, state) -> the state a "local" access leaves behind.
LOCAL_NEXT_STATE: Dict[Tuple[AccessKind, LineState], LineState] = {
    (AccessKind(access), LineState(state)): LineState(target)
    for (access, state), target in spec.LOCAL_NEXT_STATE.items()
}

#: access -> state -> next state, for every ``"local"`` cell that only
#: changes the line's state: the L1's clean hits.  M -> TMI is left
#: out, because its flush writes the line back first; it takes the
#: full dispatch.
CLEAN_HITS: Dict[AccessKind, Dict[LineState, LineState]] = {
    kind: {
        state: LOCAL_NEXT_STATE[kind, state]
        for state in LineState
        if LOCAL_DISPATCH.get((kind, state)) == "local"
        and not (state is LineState.M and LOCAL_NEXT_STATE[kind, state] is not state)
    }
    for kind in AccessKind
}

#: access -> the directory request a "request" access issues.
MISS_REQUESTS: Dict[AccessKind, RequestType] = {
    AccessKind(access): RequestType(request)
    for access, request in spec.MISS_REQUESTS.items()
}

#: (access, granted) -> state installed; identity for unlisted pairs.
GRANT_INSTALL: Dict[Tuple[AccessKind, LineState], LineState] = {
    (AccessKind(access), LineState(granted)): LineState(installed)
    for (access, granted), installed in spec.GRANT_INSTALL.items()
}

#: (forwarded request, responder state) -> responder's next state.
REMOTE_NEXT_STATE: Dict[Tuple[RequestType, LineState], LineState] = {
    (RequestType(request), LineState(state)): LineState(target)
    for (request, state), target in spec.REMOTE_NEXT_STATE.items()
}

#: (request, signature category) -> the responder's answer.
RESPONSE_TABLE: Dict[Tuple[RequestType, str], ResponseKind] = {
    (RequestType(request), category): ResponseKind(response)
    for (request, category), response in spec.RESPONSE_TABLE.items()
}

#: (request, signature category) -> responder CST naming the requestor.
RESPONDER_CST: Dict[Tuple[RequestType, str], str] = {
    (RequestType(request), category): cst
    for (request, category), cst in spec.RESPONDER_CST.items()
}

#: (access, response) -> requestor CST naming the responder.
REQUESTER_CST: Dict[Tuple[AccessKind, ResponseKind], str] = {
    (AccessKind(access), ResponseKind(response)): cst
    for (access, response), cst in spec.REQUESTER_CST.items()
}

#: CST name -> the conflict label traces and wound kinds carry.
CST_LABELS: Dict[str, str] = {"r_w": "R-W", "w_r": "W-R", "w_w": "W-W"}

#: A grant condition sees the directory entry (after the forwards have
#: pruned it) and the responses the forwards gathered.
GrantCondition = Callable[..., bool]

_THREATENED = ResponseKind.THREATENED


def _threatened(entry, responses) -> bool:
    """Some forwarded holder answered Threatened."""
    for _, kind in responses:
        if kind is _THREATENED:
            return True
    return False


def _no_holders(entry, responses) -> bool:
    """No processor is listed as a sharer or an owner."""
    return not (entry.sharers or entry.owners)


def otherwise(entry, responses) -> bool:
    """The unconditional rule.  The directory tests for it by identity
    and grants without calling it."""
    return True


_GRANT_CONDITIONS: Dict[str, GrantCondition] = {
    "threatened": _threatened,
    "no_holders": _no_holders,
    "otherwise": otherwise,
}


def _grant_rules(request: str) -> Tuple[Tuple[GrantCondition, LineState], ...]:
    """GETS's conditional rules; a single-state grant holds unconditionally."""
    if request == "GETS":
        rules = spec.GETS_GRANT_RULES
    else:
        (only,) = spec.GRANTS[request]
        rules = (("otherwise", only),)
    return tuple((_GRANT_CONDITIONS[condition], LineState(state)) for condition, state in rules)


#: request -> ((condition, granted state), ...), most specific first.
GRANT_RULES: Dict[RequestType, Tuple[Tuple[GrantCondition, LineState], ...]] = {
    RequestType(request): _grant_rules(request) for request in spec.REQUESTS
}

