"""Ablation — line-granularity conflict detection and false sharing.

FlexTM detects conflicts at cache-line granularity (signatures insert
line addresses), so logically independent words that share a line
conflict anyway.  This bench runs independent per-thread counters in
two layouts — padded (one counter per line) and packed (eight counters
per line) — and measures the false-sharing tax, a design consequence
the paper's choice of line-granularity signatures accepts.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import SystemParams
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.tmtypes import TArray
from repro.runtime.txthread import TxThread, WorkItem

THREADS = 8


def _run(padded: bool, cycles: int):
    machine = FlexTMMachine(SystemParams())
    runtime = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
    counters = TArray(machine, THREADS, padded=padded)

    def items(index):
        def body(ctx):
            value = yield from counters.get(ctx, index)
            yield from ctx.work(20)
            yield from counters.set(ctx, index, value + 1)

        while True:
            yield WorkItem(body)

    threads = [TxThread(i, runtime, items(i)) for i in range(THREADS)]
    result = Scheduler(machine, threads).run(cycle_limit=cycles)
    # Sanity: per-thread counters must equal per-thread commits even
    # under false sharing (conflicts cost time, never correctness).
    for entry in result.per_thread:
        assert counters.peek(entry["thread_id"]) == entry["commits"]
    return result


def test_false_sharing_tax(benchmark, bench_cycles):
    def sweep():
        return {
            "padded": _run(True, bench_cycles),
            "packed": _run(False, bench_cycles),
        }

    results = run_once(benchmark, sweep)
    print()
    for name, result in results.items():
        print(
            f"  {name:7s} commits={result.commits:6d} aborts={result.aborts:6d} "
            f"tput={result.throughput:9.1f}"
        )
    padded = results["padded"]
    packed = results["packed"]
    # Independent counters: padded layout has (almost) no aborts.
    assert padded.aborts <= padded.commits * 0.02
    # Packing eight counters into one line manufactures conflicts...
    assert packed.aborts > padded.aborts * 5
    # ...and costs real throughput.
    assert padded.throughput > packed.throughput * 1.3
