"""E7 — Section 7.3 overflow study: OT redo-logging vs ideal buffering.

The paper: with an unbounded victim buffer as the ideal, OT-based
redo-logging costs ~7% on average and up to ~13% (RandomGraph), because
restarted transactions queue behind the committed transaction's
copy-back; workloads that never overflow lose nothing.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.overflow import render_overflow, run_overflow_study


def test_overflow_study(benchmark, bench_cycles):
    results = run_once(
        benchmark,
        lambda: run_overflow_study(
            workloads=("HashTable", "RBTree", "RandomGraph"),
            threads=2,
            cycle_limit=bench_cycles,
        ),
    )
    print()
    print(render_overflow(results))

    # The constrained L1 actually makes write sets spill.
    assert results["RandomGraph"].spills > 0

    # OT cost is modest: single-digit-to-teens percent, never a cliff
    # (the paper reports ~7% average, 13% max).
    for workload, point in results.items():
        assert point.slowdown_percent < 25.0, workload
        assert point.ot_throughput > 0

    # RandomGraph — the biggest write sets — pays the most; the small
    # write sets of HashTable pay essentially nothing.
    assert results["RandomGraph"].slowdown_percent > 3.0
    assert results["HashTable"].slowdown_percent < 8.0
    assert (
        results["RandomGraph"].slowdown_percent
        >= results["HashTable"].slowdown_percent
    )
