"""Abort cause fidelity: who wounded whom, and why.

Every abort surfaced to the runtime carries the wounding processor and
the conflict kind (R-W / W-R / W-W / SI / migration / watchdog),
recorded by the machine at TSW-write time.  These tests lock the whole
pipeline: descriptor staging -> TransactionAborted -> per-thread
``abort_kinds`` -> RunResult.aborts_by_kind -> tracer events.
"""

import pytest

from repro.core.descriptor import ConflictMode
from repro.harness.runner import SYSTEMS, ExperimentConfig, run_experiment
from repro.obs.tracer import EventTracer
from repro.params import small_test_params
from repro.obs.events import UNATTRIBUTED_KIND, WOUND_KINDS

#: The full cause vocabulary (the central registry) plus the bucket for
#: legacy backends that raise without attribution.
KNOWN_KINDS = WOUND_KINDS | {UNATTRIBUTED_KIND}


def _contended(system, mode=ConflictMode.EAGER, tracer=None, threads=4):
    return ExperimentConfig(
        workload="RandomGraph",
        system=system,
        threads=threads,
        mode=mode,
        cycle_limit=80_000,
        seed=3,
        params=small_test_params(4),
        tracer=tracer,
    )


def test_aborts_by_kind_accounts_for_every_abort():
    result = run_experiment(_contended("FlexTM"))
    assert result.aborts > 0, "need contention for this test to bite"
    assert sum(result.aborts_by_kind.values()) == result.aborts
    assert set(result.aborts_by_kind) <= KNOWN_KINDS


def test_eager_flextm_attributes_conflict_kinds():
    result = run_experiment(_contended("FlexTM"))
    attributed = {
        kind for kind in result.aborts_by_kind if kind in ("R-W", "W-R", "W-W")
    }
    assert attributed, f"no CST-kind attribution in {result.aborts_by_kind}"


def test_lazy_flextm_commit_wounds_are_attributed():
    result = run_experiment(_contended("FlexTM", mode=ConflictMode.LAZY))
    assert result.aborts > 0
    # Lazy conflicts resolve at commit: the winner wounds via W-W/W-R.
    assert set(result.aborts_by_kind) & {"W-W", "W-R"}, result.aborts_by_kind


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_backend_accounts_for_aborts(system):
    result = run_experiment(_contended(system))
    assert sum(result.aborts_by_kind.values()) == result.aborts
    assert set(result.aborts_by_kind) <= KNOWN_KINDS


def test_tracer_abort_events_carry_attribution():
    tracer = EventTracer(trace_coherence=False)
    result = run_experiment(_contended("FlexTM", tracer=tracer))
    abort_events = tracer.by_kind("tx_abort")
    assert len(abort_events) == result.aborts
    attributed = [event for event in abort_events if "conflict" in event.data]
    assert attributed, "no tx_abort event carried a conflict kind"
    for event in attributed:
        assert event.data["conflict"] in KNOWN_KINDS
        # The wounding processor rides along (or -1 when external).
        assert event.data["by"] >= -1
