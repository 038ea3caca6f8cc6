"""LFUCache workload: heap invariants and hot-page contention."""

import pytest

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.params import small_test_params
from repro.runtime.api import TxContext
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread
from repro.workloads.base import word_address
from repro.workloads.lfucache import HEAP_ENTRIES, LFUCacheWorkload
from tests.helpers import drive


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def _consistent_slots(m, workload):
    """heap[] and slot[] must stay mutually consistent."""
    for slot in range(HEAP_ENTRIES):
        page_word = m.memory.read(word_address(workload.heap_base, slot))
        if page_word:
            back = m.memory.read(word_address(workload.slot_base, page_word - 1))
            assert back == slot + 1, f"slot map broken at heap slot {slot}"


def test_setup_heap_consistent(m):
    workload = LFUCacheWorkload(m, seed=1)
    _consistent_slots(m, workload)


def test_access_bumps_frequency(m):
    workload = LFUCacheWorkload(m, seed=1)
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    thread = TxThread(0, runtime, iter(()))
    thread.processor = 0
    ctx = TxContext(runtime, thread)
    before = m.memory.read(word_address(workload.freq_base, 3))
    drive(m, 0, runtime.begin(thread))
    drive(m, 0, workload.access_page(ctx, 3))
    drive(m, 0, runtime.commit(thread))
    assert m.memory.read(word_address(workload.freq_base, 3)) == before + 1
    _consistent_slots(m, workload)


def test_cold_page_can_displace_root(m):
    workload = LFUCacheWorkload(m, seed=1)
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    thread = TxThread(0, runtime, iter(()))
    thread.processor = 0
    ctx = TxContext(runtime, thread)
    cold_page = 2000  # outside the warmed heap
    # Touch it until it beats the heap minimum (all warmed freqs are 1).
    for _ in range(3):
        drive(m, 0, runtime.begin(thread))
        drive(m, 0, workload.access_page(ctx, cold_page))
        drive(m, 0, runtime.commit(thread))
    assert m.memory.read(word_address(workload.slot_base, cold_page)) != 0
    _consistent_slots(m, workload)


def test_concurrent_access_preserves_consistency(m):
    workload = LFUCacheWorkload(m, seed=4)
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    threads = [TxThread(i, runtime, workload.items(i)) for i in range(4)]
    result = Scheduler(m, threads).run(cycle_limit=120_000)
    assert result.commits > 0
    _consistent_slots(m, workload)


def test_zipf_stream_concentrates_conflicts(m):
    """The workload must show a high abort ratio — its defining trait."""
    workload = LFUCacheWorkload(m, seed=4)
    runtime = FlexTMRuntime(m, mode=ConflictMode.EAGER)
    threads = [TxThread(i, runtime, workload.items(i)) for i in range(4)]
    result = Scheduler(m, threads).run(cycle_limit=150_000)
    assert result.aborts > result.commits * 0.2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="LFUCache at 4 threads commits nothing on LogTM-SE (every abort "
    "is stall-deadlock) or RSTM; fixing it moves op-digest cells",
)
@pytest.mark.parametrize("system", ["LogTM-SE", "RSTM"])
def test_four_threads_commit_on_every_backend(system):
    config = ExperimentConfig(
        workload="LFUCache", system=system, threads=4, cycle_limit=30_000,
        params=small_test_params(4),
    )
    assert run_experiment(config).commits > 0
