"""Extension — KMeans scaling (beyond Table 3b).

A STAMP-style workload added on top of the paper's seven: contention is
a single knob (number of clusters), so the bench shows both regimes on
one workload — near-linear scaling with many centroids, and
Vacation-High-like conflict behaviour with few.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import SystemParams
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread
from repro.workloads.kmeans import KMeansWorkload


def _run(threads: int, num_clusters: int, cycles: int):
    machine = FlexTMMachine(SystemParams())
    workload = KMeansWorkload(machine, seed=42, num_clusters=num_clusters)
    runtime = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
    tx_threads = [TxThread(i, runtime, workload.items(i)) for i in range(threads)]
    result = Scheduler(machine, tx_threads).run(cycle_limit=cycles)
    assigned, _ = workload.totals()
    assert assigned == result.commits  # conservation under contention
    return result


def test_kmeans_scaling(benchmark, bench_cycles):
    def sweep():
        out = {}
        for clusters in (2, 64):
            for threads in (1, 8):
                out[(clusters, threads)] = _run(threads, clusters, bench_cycles)
        return out

    results = run_once(benchmark, sweep)
    print()
    print("  clusters threads  commits  aborts      tput")
    for (clusters, threads), result in results.items():
        print(
            f"  {clusters:8d} {threads:7d} {result.commits:8d} "
            f"{result.aborts:7d} {result.throughput:9.1f}"
        )
    spread = results[(64, 8)].throughput / max(1e-9, results[(64, 1)].throughput)
    hot = results[(2, 8)].throughput / max(1e-9, results[(2, 1)].throughput)
    # Many centroids scale well; two hot centroids scale poorly.
    assert spread > 3.0
    assert hot < spread
    # Hot centroids conflict measurably.
    assert results[(2, 8)].aborts > results[(64, 8)].aborts