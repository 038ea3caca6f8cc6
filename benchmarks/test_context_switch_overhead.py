"""E8 ablation — context-switch virtualization overhead (Section 5).

No figure in the paper, but a headline functional claim: transactions
extend across context switches, with summary signatures checked only on
L1 misses (not on the hit path like LogTM-SE).  This bench measures the
throughput retained when a workload is 2x oversubscribed with a small
quantum versus running undisturbed.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import SystemParams
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread
from repro.workloads import WORKLOADS


def _run(threads, processors, quantum, cycles):
    machine = FlexTMMachine(SystemParams())
    runtime = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
    workload = WORKLOADS["HashTable"](machine, seed=42)
    tx_threads = [TxThread(i, runtime, workload.items(i)) for i in range(threads)]
    scheduler = Scheduler(
        machine, tx_threads, quantum=quantum, processors=list(range(processors))
    )
    return scheduler.run(cycle_limit=cycles)


def test_context_switch_overhead(benchmark, bench_cycles):
    def sweep():
        return {
            "dedicated (8 on 8)": _run(8, 8, None, bench_cycles),
            "oversubscribed (16 on 8)": _run(16, 8, 10_000, bench_cycles),
        }

    results = run_once(benchmark, sweep)
    print()
    for name, result in results.items():
        switches = result.stats.get("ctxsw.switches", 0)
        traps = result.stats.get("summary.traps", 0)
        print(
            f"  {name:26s} commits={result.commits:6d} tput={result.throughput:9.1f} "
            f"switches={switches:5d} summary-traps={traps:4d}"
        )
    dedicated = results["dedicated (8 on 8)"]
    oversubscribed = results["oversubscribed (16 on 8)"]
    # Switching actually happened and transactions survived it.
    assert oversubscribed.stats.get("ctxsw.switches", 0) > 0
    assert oversubscribed.commits > 0
    # The virtualization machinery keeps most of the throughput: the
    # same 8 cores should not lose more than half to switching.
    assert oversubscribed.throughput > dedicated.throughput * 0.5
