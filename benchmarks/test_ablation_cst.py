"""Ablation — what CSTs buy (DESIGN.md).

FlexTM's CSTs let a committing transaction abort exactly the
processors it conflicted with.  The strawman alternative this bench
compares against is 'abort everybody active' (the effect of global
arbitration / write-set broadcast in token- or bus-based lazy schemes,
which serialize or over-kill).  We emulate the strawman by running the
lazy commit with an Aggressive manager that wounds every active
transaction, and measure the wasted aborts.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.params import SystemParams
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread
from repro.workloads import WORKLOADS


class BroadcastAbortRuntime(FlexTMRuntime):
    """Strawman: commit aborts *every* active transaction (no CSTs)."""

    name = "FlexTM-broadcast"

    def commit(self, thread):
        thread.nest_depth = 0  # flat transactions only in this strawman
        proc_id = thread.processor
        descriptor = thread.descriptor
        # Wound everyone else who is active, conflicting or not.
        for processor in range(self.machine.params.num_processors):
            if processor == proc_id:
                continue
            for enemy in self.cmt.active_on(processor):
                if enemy is descriptor:
                    continue
                yield ("cas", enemy.tsw_address, TxStatus.ACTIVE, TxStatus.ABORTED)
        # Clear our own CSTs (we 'resolved' everything) and CAS-Commit.
        proc = self.machine.processors[proc_id]
        proc.csts.clear()
        result = yield ("cas_commit",)
        if result.success:
            descriptor.commits += 1
            self._finish(thread)
            return
        from repro.errors import TransactionAborted

        raise TransactionAborted("lost the commit race")


def _run(runtime_cls, cycles):
    machine = FlexTMMachine(SystemParams())
    runtime = runtime_cls(machine, mode=ConflictMode.LAZY)
    workload = WORKLOADS["RBTree"](machine, seed=42)
    threads = [TxThread(i, runtime, workload.items(i)) for i in range(8)]
    return Scheduler(machine, threads).run(cycle_limit=cycles)


def test_cst_targeted_aborts_beat_broadcast(benchmark, bench_cycles):
    def sweep():
        return {
            "CST-targeted": _run(FlexTMRuntime, bench_cycles),
            "broadcast": _run(BroadcastAbortRuntime, bench_cycles),
        }

    results = run_once(benchmark, sweep)
    print()
    for name, result in results.items():
        print(
            f"  {name:13s} commits={result.commits:6d} aborts={result.aborts:6d} "
            f"tput={result.throughput:9.1f}"
        )
    targeted = results["CST-targeted"]
    broadcast = results["broadcast"]
    # Broadcasting wounds innocents: many more aborts per commit...
    assert broadcast.aborts / max(1, broadcast.commits) > (
        targeted.aborts / max(1, targeted.commits)
    )
    # ...and lower throughput.
    assert targeted.throughput > broadcast.throughput
