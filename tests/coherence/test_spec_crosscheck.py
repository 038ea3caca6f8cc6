"""Pin the enum vocabulary and predicates against the machine-readable spec.

The controllers dispatch through tables compiled from
:mod:`repro.coherence.spec` (:mod:`repro.coherence.tables`), and
``LineState`` reads its encoding and flash transforms from the spec.
What stays hand-written is the enum vocabulary and a few predicates
(``is_valid``, ``is_transactional``, ``is_write``, ``is_exclusive``,
``signals_conflict``); these tests pin them against the spec.
"""

from __future__ import annotations

import pytest

from repro.coherence import spec
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.states import LineState

_ACCESS_BY_NAME = {
    "Load": AccessKind.LOAD,
    "Store": AccessKind.STORE,
    "TLoad": AccessKind.TLOAD,
    "TStore": AccessKind.TSTORE,
}


def test_spec_states_match_enum_members():
    assert set(spec.STATES) == {state.name for state in LineState}
    assert set(spec.REQUESTS) == {request.name for request in RequestType}
    assert set(spec.ACCESSES) == set(_ACCESS_BY_NAME)
    assert set(spec.RESPONSES) == {response.value for response in ResponseKind}


def test_encodings_are_distinct():
    encodings = [spec.ENCODINGS[name] for name in spec.STATES]
    assert len(set(encodings)) == len(encodings)


@pytest.mark.parametrize("state", list(LineState))
def test_state_predicates_match_spec(state):
    for predicate in ("is_valid", "is_transactional"):
        satisfying = spec.STATE_PREDICATES[predicate]
        assert getattr(state, predicate) == (state.name in satisfying), (
            f"LineState.{state.name}.{predicate} disagrees with "
            f"spec.STATE_PREDICATES[{predicate!r}]"
        )


def test_t_bit_is_exactly_the_transactional_predicate():
    for state in LineState:
        assert (state.encoding[2] == 1) == state.is_transactional


def test_m_v_bits_match_predicates():
    for state in LineState:
        # I is the only state without a usable copy, and the only
        # all-zero encoding.
        assert state.is_valid == (state.encoding != (0, 0, 0))


@pytest.mark.parametrize("kind", list(AccessKind))
def test_access_predicates_match_spec(kind):
    name = next(name for name, member in _ACCESS_BY_NAME.items() if member is kind)
    for predicate, satisfying in spec.ACCESS_PREDICATES.items():
        assert getattr(kind, predicate) == (name in satisfying)


@pytest.mark.parametrize("req_type", list(RequestType))
def test_request_predicates_match_spec(req_type):
    for predicate, satisfying in spec.REQUEST_PREDICATES.items():
        assert getattr(req_type, predicate) == (req_type.name in satisfying)


def test_dual_cst_is_an_involution():
    for table, mirror in spec.DUAL_CST.items():
        assert spec.DUAL_CST[mirror] == table


def test_response_conflict_signal_matches_table():
    # Every response the spec derives from a signature hit signals a
    # conflict relationship except plain Shared.
    conflicting = {
        response
        for response in spec.RESPONSE_TABLE.values()
        if response != "Shared"
    }
    for response in ResponseKind:
        if response.value in conflicting:
            assert response.signals_conflict
