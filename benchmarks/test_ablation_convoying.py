"""Ablation — convoying behind descheduled transactions (Section 5).

The paper argues LogTM-SE's lack of remote aborts lets running
transactions "convoy" behind a suspended one; FlexTM's CSTs + AOU let
them wound it and proceed.  This bench oversubscribes a single hot-line
workload so writers are regularly descheduled mid-transaction and
compares committed throughput.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import SystemParams
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.stm.logtmse import LogTmSeRuntime


def _run(runtime_cls, cycles):
    machine = FlexTMMachine(SystemParams(num_processors=4))
    if runtime_cls is FlexTMRuntime:
        runtime = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
    else:
        runtime = runtime_cls(machine)
    hot = machine.allocate(machine.params.line_bytes, line_aligned=True)

    def mixed(ctx):
        value = yield from ctx.read(hot)
        for _ in range(10):
            yield from ctx.work(80)  # long enough to straddle quanta
        yield from ctx.write(hot, value + 1)

    def items():
        while True:
            yield WorkItem(mixed)

    # 8 threads on 4 cores with a short quantum: transactions are
    # routinely suspended mid-flight while holding conflicts.
    threads = [TxThread(i, runtime, items()) for i in range(8)]
    scheduler = Scheduler(machine, threads, quantum=1_500)
    return scheduler.run(cycle_limit=cycles)


def test_flextm_breaks_the_convoy(benchmark, bench_cycles):
    def sweep():
        return {
            "FlexTM": _run(FlexTMRuntime, bench_cycles),
            "LogTM-SE": _run(LogTmSeRuntime, bench_cycles),
        }

    results = run_once(benchmark, sweep)
    print()
    for name, result in results.items():
        print(
            f"  {name:9s} commits={result.commits:6d} aborts={result.aborts:6d} "
            f"switches={result.stats.get('ctxsw.switches', 0):5d} "
            f"tput={result.throughput:9.1f}"
        )
    flextm = results["FlexTM"]
    logtm = results["LogTM-SE"]
    # Both actually context-switched mid-transaction.
    assert flextm.stats.get("ctxsw.switches", 0) > 0
    assert logtm.stats.get("ctxsw.switches", 0) > 0
    # FlexTM's remote aborts break the convoy: clearly higher commits.
    assert flextm.commits > logtm.commits * 1.3
