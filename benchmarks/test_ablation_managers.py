"""Ablation — contention-manager policy (DESIGN.md).

FlexTM's pitch is policy-in-software: swapping the conflict manager is
a two-line change.  This bench compares Polka against Aggressive
(always wound), Timid (always self-abort — the only policy LogTM-SE or
SigTM hardware permits, per Section 6) and Timestamp, on a contended
workload, under eager management where the manager actually runs.

Expected shape: Polka and Timestamp sustain throughput; Aggressive
wastes work in mutual wounding; Timid limits wounds but forfeits the
requester's progress on every conflict.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import SystemParams
from repro.runtime.contention import (
    AggressiveManager,
    PolkaManager,
    TimestampManager,
    TimidManager,
)
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread
from repro.workloads import WORKLOADS

MANAGERS = {
    "Polka": PolkaManager,
    "Aggressive": AggressiveManager,
    "Timid": TimidManager,
    "Timestamp": TimestampManager,
}


def _run(manager_cls, cycles):
    machine = FlexTMMachine(SystemParams())
    runtime = FlexTMRuntime(machine, mode=ConflictMode.EAGER, manager=manager_cls())
    workload = WORKLOADS["Vacation-High"](machine, seed=42)
    threads = [TxThread(i, runtime, workload.items(i)) for i in range(8)]
    return Scheduler(machine, threads).run(cycle_limit=cycles)


def test_manager_comparison(benchmark, bench_cycles):
    def sweep():
        return {name: _run(cls, bench_cycles) for name, cls in MANAGERS.items()}

    results = run_once(benchmark, sweep)
    print()
    print(f"  {'manager':10s} {'commits':>8s} {'aborts':>8s} {'tput':>10s}")
    for name, result in results.items():
        print(
            f"  {name:10s} {result.commits:8d} {result.aborts:8d} "
            f"{result.throughput:10.1f}"
        )

    # Every policy makes progress (no manager deadlocks the machine).
    for name, result in results.items():
        assert result.commits > 0, name

    polka = results["Polka"]
    aggressive = results["Aggressive"]
    timid = results["Timid"]
    # Polka's bounded patience beats always-wounding on aborts-per-commit.
    assert (polka.aborts / max(1, polka.commits)) <= (
        aggressive.aborts / max(1, aggressive.commits)
    ) * 1.2
    # Self-abort-only hardware (Timid) costs throughput vs Polka — the
    # paper's argument for FlexTM's remote-abort capability (Section 6).
    assert polka.throughput >= timid.throughput * 0.9
