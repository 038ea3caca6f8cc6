"""The forward-progress guarantee, empirically: no cell ever wedges.

Runs the ladder-armed fault matrix — every TM backend under every
chaos profile — and asserts the acceptance criteria of the resilience
layer: no wedged / crashed / silently-corrupted cells, full commit
counts wherever the run wasn't cut short by a *diagnosed* fault, and a
bounded worst-case abort streak (the FIFO token turns unbounded retry
into bounded wait).
"""

import pytest

from repro.harness.chaos import FAILING, FAULT_PROFILES
from repro.harness.degrade import HARNESS_SPEC, run_degrade_matrix
from repro.harness.runner import SYSTEMS

THREADS = 4
TXNS = 4


@pytest.fixture(scope="module")
def matrix():
    return run_degrade_matrix(
        sorted(SYSTEMS), sorted(FAULT_PROFILES), seed=1,
        threads=THREADS, txns=TXNS,
    )


def test_no_cell_fails(matrix):
    assert len(matrix) == len(SYSTEMS) * len(FAULT_PROFILES)
    failures = [
        (cell.backend, cell.profile, cell.classification, cell.detail)
        for cell in matrix
        if cell.classification in FAILING
    ]
    assert not failures


def test_every_undiagnosed_cell_commits_everything(matrix):
    for cell in matrix:
        if cell.classification == "diagnosed":
            continue            # the checker stopped the run on purpose
        assert cell.commits == THREADS * TXNS, (cell.backend, cell.profile)


def test_abort_streaks_stay_bounded(matrix):
    # Once a streak reaches irrevocable_after the thread serializes and
    # commits; streaks far past that bound mean the token failed.
    bound = HARNESS_SPEC.irrevocable_after + 5
    for cell in matrix:
        peak = cell.escalations.get("peak_abort_streak", 0)
        assert peak <= bound, (cell.backend, cell.profile, peak)


def test_ladder_actually_fired_somewhere(matrix):
    # The matrix must exercise the machinery it certifies: at least one
    # cell recovered through the ladder (all-clean would mean the fault
    # profiles no longer bite and the guarantee is vacuous).
    assert any(cell.classification == "recovered" for cell in matrix)
    assert any(
        cell.escalations.get("irrevocable_grants", 0) > 0 for cell in matrix
    )


def test_matrix_is_deterministic():
    once = run_degrade_matrix(["FlexTM"], ["storm"], seed=1, threads=2, txns=3)
    twice = run_degrade_matrix(["FlexTM"], ["storm"], seed=1, threads=2, txns=3)
    assert once == twice
