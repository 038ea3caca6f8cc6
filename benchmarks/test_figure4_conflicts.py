"""E2 — Figure 4's conflict table: CST degree per committed transaction.

The paper's point: even in conflict-heavy workloads, a transaction
conflicts with only a fraction of the other transactions in the system
— which is why per-processor CSTs (local arbitration, parallel commits)
beat global arbitration and serialized commits.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.figure4 import render_conflict_table, run_conflict_table


def test_conflict_table(benchmark, bench_cycles):
    threads = 8
    table = run_once(
        benchmark,
        lambda: run_conflict_table(
            thread_points=(threads,), cycle_limit=bench_cycles
        ),
    )
    print()
    print(render_conflict_table(table))

    degrees = {workload: table[workload][threads] for workload in table}

    # Scalable workloads encounter essentially no conflict.
    for workload in ("HashTable", "Delaunay"):
        assert degrees[workload]["median"] == 0, workload

    # Conflict-heavy workloads still touch only a minority of the
    # system's transactions (median well below thread count).
    for workload in ("LFUCache", "RandomGraph"):
        assert degrees[workload]["median"] <= threads * 0.75, workload
        assert degrees[workload]["max"] >= 1, workload

    # Nobody's median reaches the full population.
    for workload, stats in degrees.items():
        assert stats["median"] < threads, workload
        assert stats["max"] <= threads, workload
