"""Paging and context-switch robustness under chaos.

Preemption storms and forced evictions are the two fault families that
stress the OS-facing machinery (Section 4.1/5 of the paper: unmap /
remap flows, suspend / resume with summary signatures, migration
abort-and-restart).  These tests pin the *attribution* contract: every
migration-policy abort is counted once in ``ctxsw.migration_aborts``
and lands under exactly the ``migration`` kind in
``RunResult.aborts_by_kind`` — no double counting, no leakage into
``unattributed``.
"""

import itertools

import pytest

from repro.chaos import ChaosEngine, ChaosSpec, InvariantChecker
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.core.paging import PAGE_BYTES, remap_page, unmap_page
from repro.harness.chaos import FAULT_PROFILES, _bodies
from repro.params import small_test_params
from repro.resilience import DegradeSpec, ResilienceController
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread
from repro.sim.rng import DeterministicRng
from tests.helpers import begin_hardware_transaction

#: The chaos harness's preemption-storm and forced-eviction profiles.
PREEMPTION_STORM = ChaosSpec(seed=5, **FAULT_PROFILES["sched"])
FORCED_EVICTION = ChaosSpec(seed=5, **FAULT_PROFILES["overflow"])

THREADS = 4
TXNS = 6


def _oversubscribed_run(chaos, degrade=None):
    """Finite contended workload, 4 threads on 2 cores, chaos armed.

    The workload retires (txns per thread) so the run never truncates
    at a cycle budget — every counted migration abort must also have
    been *delivered* by the time the result is built, which is what
    makes exact-attribution assertions meaningful.
    """
    machine = FlexTMMachine(small_test_params(4))
    machine.attach(
        chaos=ChaosEngine(chaos),
        invariants=InvariantChecker(),
        resilience=None if degrade is None else ResilienceController(degrade),
    )
    backend = FlexTMRuntime(machine, mode=ConflictMode.EAGER)
    if degrade is not None:
        machine.resilience.bind_manager(backend.manager)
    line = machine.params.line_bytes
    cells = [machine.allocate(line, line_aligned=True) for _ in range(6)]
    for index, cell in enumerate(cells):
        machine.memory.write(cell, index)
    unique = itertools.count(1000)
    threads = [
        TxThread(i, backend, _bodies(cells, DeterministicRng(7 * 7919 + i), TXNS, unique))
        for i in range(THREADS)
    ]
    # Two cores for four threads: every preemption can migrate.
    return Scheduler(machine, threads, processors=[0, 1]).run(
        cycle_limit=100_000_000
    )


def _assert_exact_migration_attribution(result):
    counted = result.stats.get("ctxsw.migration_aborts", 0)
    attributed = result.aborts_by_kind.get("migration", 0)
    assert attributed == counted, result.aborts_by_kind


def test_preemption_storm_migration_attribution_is_exact():
    result = _oversubscribed_run(PREEMPTION_STORM)
    assert result.commits == THREADS * TXNS
    assert result.stats.get("ctxsw.switches", 0) > 0
    # The storm must actually migrate transactions for this to bite.
    assert result.stats.get("ctxsw.migration_aborts", 0) > 0
    _assert_exact_migration_attribution(result)


def test_forced_eviction_migration_attribution_is_exact():
    result = _oversubscribed_run(FORCED_EVICTION)
    assert result.commits == THREADS * TXNS
    # Evictions alone never masquerade as migration aborts.
    _assert_exact_migration_attribution(result)


def test_preemption_storm_with_ladder_armed_still_attributes_exactly():
    # The pinned serial holder is exempt from preemption; everyone
    # else's migration aborts must still be counted exactly once.
    result = _oversubscribed_run(
        PREEMPTION_STORM,
        degrade=DegradeSpec(boost_after=1, eager_after=2, irrevocable_after=3),
    )
    assert result.commits == THREADS * TXNS
    _assert_exact_migration_attribution(result)


@pytest.fixture
def m():
    machine = FlexTMMachine(small_test_params(4))
    machine.attach(chaos=ChaosEngine(FORCED_EVICTION), invariants=InvariantChecker())
    return machine


def _page_base(m):
    base = m.allocate(2 * PAGE_BYTES, line_aligned=True)
    return (base + PAGE_BYTES - 1) & ~(PAGE_BYTES - 1)


def test_unmap_remap_commit_survives_chaos(m):
    # The end-to-end paging flow of tests/core/test_paging.py, re-run
    # with the forced-eviction chaos engine and invariants armed: the
    # OT spill path must stay correct when walks fail underneath it.
    base = _page_base(m)
    new_base = base + PAGE_BYTES
    begin_hardware_transaction(m, 0)
    m.tstore(0, base, 41)
    m.tstore(0, base + 64, 42)
    moved = unmap_page(m, base)
    assert moved == 2
    remap_page(m, base, new_base)
    proc = m.processors[0]
    assert proc.ot.lookup(m.amap.line_of(new_base))
    assert m.cas_commit(0).success
    assert m.memory.read(new_base) == 41
    assert m.memory.read(new_base + 64) == 42


def test_unmap_under_chaos_preserves_speculative_values(m):
    base = _page_base(m)
    begin_hardware_transaction(m, 0)
    m.tstore(0, base, 7)
    unmap_page(m, base)
    proc = m.processors[0]
    assert proc.overlay[base] == 7
    assert proc.ot.active
