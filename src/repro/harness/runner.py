"""Generic experiment runner.

One call builds a fresh machine, a TM system, a workload, and the
threads, runs for a cycle budget, and returns the
:class:`~repro.runtime.scheduler.RunResult`.  Every harness and
benchmark goes through here so configurations stay comparable.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, List, Optional

from repro.chaos import ChaosEngine, ChaosSpec, InvariantChecker, LivelockWatchdog, WatchdogSpec
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.obs.tracer import Tracer
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.resilience import DegradeSpec, ResilienceController
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import RunResult, Scheduler
from repro.runtime.txthread import TxThread
from repro.stm.cgl import CglRuntime
from repro.stm.htmbe import HtmBestEffortRuntime
from repro.stm.logtmse import LogTmSeRuntime
from repro.stm.rstm import RstmRuntime
from repro.stm.rtmf import RtmfRuntime
from repro.stm.tl2 import Tl2Runtime
from repro.workloads import WORKLOADS
from repro.workloads.prime import PrimeWorkload


def _flextm(machine: FlexTMMachine, mode: ConflictMode) -> FlexTMRuntime:
    return FlexTMRuntime(machine, mode=mode)


SYSTEMS: Dict[str, Callable] = {
    "CGL": lambda machine, mode: CglRuntime(machine),
    "FlexTM": _flextm,
    "RTM-F": lambda machine, mode: RtmfRuntime(machine, mode=mode),
    "RSTM": lambda machine, mode: RstmRuntime(machine),
    "TL2": lambda machine, mode: Tl2Runtime(machine),
    "LogTM-SE": lambda machine, mode: LogTmSeRuntime(machine),
    "HTM-BE": lambda machine, mode: HtmBestEffortRuntime(machine),
}

#: One-line descriptions for ``--list-backends`` on the harness CLIs.
BACKEND_SUMMARIES: Dict[str, str] = {
    "CGL": "single coarse-grain lock (normalization baseline)",
    "FlexTM": "the paper's decoupled hardware TM (signatures + CSTs)",
    "RTM-F": "hardware-accelerated STM (AOU + PDI, per-access metadata)",
    "RSTM": "software TM, invisible readers with self-validation",
    "TL2": "software TM, global version clock + commit-time locking",
    "LogTM-SE": "log-based hardware TM, eager versioning, stall-on-conflict",
    "HTM-BE": "best-effort HTM, bounded sets, HTM->SW->irrevocable fallback",
}

#: Default cycle budget per run.  REPRO_CYCLES overrides it, but the
#: environment is consulted when a config is *resolved*, not at import
#: time — ``os.environ`` changes (tests, long-running drivers) take
#: effect without reimporting this module.
DEFAULT_CYCLE_LIMIT = 400_000


def default_cycle_limit() -> int:
    """The cycle budget used when a config does not pin one."""
    override = os.environ.get("REPRO_CYCLES")
    if override:
        try:
            return int(override)
        except ValueError:
            raise ValueError(
                f"REPRO_CYCLES must be an integer, got {override!r}"
            ) from None
    return DEFAULT_CYCLE_LIMIT


@dataclasses.dataclass
class ExperimentConfig:
    """One (workload, system, threads) measurement point."""

    workload: str
    system: str
    threads: int
    mode: ConflictMode = ConflictMode.EAGER
    cycle_limit: int = 0
    seed: int = 42
    params: Optional[SystemParams] = None
    #: Transactional threads yield the CPU after an abort (Fig. 5e/f).
    yield_on_abort: bool = False
    tmi_to_victim: bool = False
    #: Restrict the run to the first N processors (oversubscription
    #: experiments); None uses every core.
    processors: Optional[int] = None
    #: Scheduling quantum in cycles (None = default policy).
    quantum: Optional[int] = None
    #: Observability: attach an EventTracer to record this run.  The
    #: default (None) installs the zero-overhead NullTracer.
    tracer: Optional[Tracer] = None
    #: Robustness: seeded fault-injection schedule (None = no faults).
    chaos: Optional["ChaosSpec"] = None
    #: Robustness: assert protocol invariants during the run.
    invariants: bool = False
    #: Robustness: liveness watchdog parameters (None = no watchdog).
    watchdog: Optional["WatchdogSpec"] = None
    #: Resilience: degradation-ladder parameters (None = no controller;
    #: controller-off runs are bit-identical to pre-resilience builds).
    degrade: Optional["DegradeSpec"] = None
    #: Observability: attach a :class:`repro.obs.metrics.MetricsHub` to
    #: collect windowed series and histograms (None = no metrics;
    #: armed runs are bit-identical to unarmed runs).
    metrics: Optional[object] = None

    def resolved_cycle_limit(self) -> int:
        return self.cycle_limit or default_cycle_limit()


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Build everything fresh and run one measurement point."""
    if config.workload not in WORKLOADS:
        raise KeyError(f"unknown workload {config.workload!r}; have {sorted(WORKLOADS)}")
    if config.system not in SYSTEMS:
        raise KeyError(f"unknown system {config.system!r}; have {sorted(SYSTEMS)}")
    params = config.params or DEFAULT_PARAMS
    machine = FlexTMMachine(params, tmi_to_victim=config.tmi_to_victim)
    controller = None if config.degrade is None else ResilienceController(config.degrade)
    machine.attach(
        tracer=config.tracer,
        metrics=config.metrics,
        chaos=None if config.chaos is None else ChaosEngine(config.chaos),
        invariants=InvariantChecker() if config.invariants else None,
        resilience=controller,
    )
    backend = SYSTEMS[config.system](machine, config.mode)
    if controller is not None:
        controller.bind_manager(backend.manager)
    workload = WORKLOADS[config.workload](machine, seed=config.seed)
    abort_prime = None
    if config.yield_on_abort:
        abort_prime = PrimeWorkload(machine, seed=config.seed + 2)
    threads: List[TxThread] = [
        TxThread(
            thread_id,
            backend,
            workload.items(thread_id),
            abort_work=abort_prime.abort_work(thread_id) if abort_prime else None,
        )
        for thread_id in range(config.threads)
    ]
    processor_list = (
        list(range(config.processors)) if config.processors is not None else None
    )
    watchdog = LivelockWatchdog(config.watchdog) if config.watchdog is not None else None
    scheduler = Scheduler(
        machine, threads, quantum=config.quantum, processors=processor_list,
        watchdog=watchdog,
    )
    result = scheduler.run(cycle_limit=config.resolved_cycle_limit())
    result.trace = config.tracer
    result.metrics = config.metrics
    return result


def run_point(
    config: ExperimentConfig,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    name: str = "",
) -> RunResult:
    """Run one figure/sweep point and write its per-point artifacts.

    ``trace_dir`` arms a sparse sweep tracer and ``metrics_dir`` a
    :class:`~repro.obs.metrics.MetricsHub`; each then receives
    ``<dir>/<name>.json``.  The observers stay in the process that ran
    the point: the returned result carries neither, so it travels light
    back from a worker.
    """
    armed: Dict[str, object] = {}
    if trace_dir:
        from repro.harness.trace import sweep_tracer

        armed["tracer"] = sweep_tracer()
    if metrics_dir:
        from repro.obs.metrics import MetricsHub

        armed["metrics"] = MetricsHub()
    result = run_experiment(dataclasses.replace(config, **armed))
    if trace_dir:
        from repro.harness.trace import write_point_trace

        write_point_trace(result.trace, trace_dir, name)
    if metrics_dir:
        from repro.harness.metrics import write_point_metrics

        write_point_metrics(result.metrics, result, metrics_dir, name)
    result.trace = result.metrics = None
    return result


def normalized_throughput(result: RunResult, baseline: RunResult) -> float:
    """Throughput relative to a baseline run (Figure 4/5's y-axis)."""
    if baseline.throughput == 0:
        return 0.0
    return result.throughput / baseline.throughput


def cgl_baseline(workload: str, cycle_limit: int = 0, seed: int = 42,
                 params: Optional[SystemParams] = None) -> RunResult:
    """The 1-thread coarse-grain-lock run everything normalizes to."""
    return run_experiment(
        ExperimentConfig(
            workload=workload,
            system="CGL",
            threads=1,
            cycle_limit=cycle_limit,
            seed=seed,
            params=params,
        )
    )
