"""Worker processes and the two measurement phases.

Every run happens in a forked worker that owns one workload, so no
timed process ever holds a tracing wrapper and a worker's peak RSS is
its workload's alone.  The *timed* phase keeps one persistent worker
per workload and drives rounds round-robin over a pipe, reversing the
order every other round, so exactly one process is busy at a time; a
:class:`SpeedProbe` takes the host's momentary speed out of each timing.
The *traced* phase uses a fresh worker per workload and installs the
:class:`~benchmarks.perf.layers.LayerTracer` there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import multiprocessing
import resource
import signal
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional

from repro.harness.runner import ExperimentConfig, run_experiment

from benchmarks.perf.layers import LayerTracer, layer_metrics, write_chrome_trace
from benchmarks.perf.workloads import PIN_SEED, SMOKE_SCALE, WARMUP_SCALE, WORKLOADS, fingerprint

#: Setup-only runs per round: set-up takes milliseconds, so one sample
#: per repeat would leave its median at the mercy of host noise.
SETUP_PROBES = 5
#: Seconds to wait for a worker to exit before terminating it.
JOIN_TIMEOUT_S = 30
#: Steps of the speed kernel in one probe (about half a millisecond).
PROBE_STEPS = 1200
#: Real-time interval between speed probes inside a timed region.
PROBE_INTERVAL_S = 0.05
#: Duration of one probe on the reference host, a 2-vCPU Xeon cloud VM
#: (Python 3.11).  Host times are reported in reference-host seconds:
#: measured seconds x REF_PROBE_S / the mean probe time measured with
#: them.  It is a unit, fixed once; any value ranks two runs the same.
REF_PROBE_S = 5e-4


class _Line:
    __slots__ = ("tag", "last_use")

    def __init__(self):
        self.tag = -1
        self.last_use = 0


class _SpeedKernel:
    """Fixed pure-Python work shaped like the simulator's inner loop.

    A 64-set, 4-way LRU array of slotted line objects driven by a
    deterministic address stream: attribute loads and stores, list
    walks and integer arithmetic.  The lines are allocated once, so a
    probe allocates no tracked object and its time does not depend on
    the simulator's heap.  It lives in the benchmark, so no change to
    the program moves it.
    """

    def __init__(self):
        self._sets = [[_Line() for _ in range(4)] for _ in range(64)]

    def run(self) -> int:
        for ways in self._sets:
            for line in ways:
                line.tag = -1
                line.last_use = 0
        address, hits = 12345, 0
        for tick in range(1, PROBE_STEPS + 1):
            address = (address * 1103515245 + 12345) & 0x7FFFFFFF
            tag = (address >> 8) & 0x3FF
            ways = self._sets[tag & 63]
            victim = ways[0]
            for line in ways:
                if line.tag == tag:
                    line.last_use = tick
                    hits += 1
                    break
                if line.last_use < victim.last_use:
                    victim = line
            else:
                victim.tag = tag
                victim.last_use = tick
        return hits


class SpeedProbe:
    """Times a region and measures the host's speed while it runs.

    On a shared host, other tenants can slow its cores by 2x for
    seconds at a time.  A probe before and after the region and
    one every ``PROBE_INTERVAL_S`` inside it (run by a SIGALRM handler
    between bytecodes, touching no simulator state) give the mean speed
    over the region, and :meth:`reference_seconds` removes it.
    """

    def __init__(self):
        self.samples: List[float] = []
        #: Seconds the region took, probes inside it included.
        self.elapsed = 0.0
        self._kernel = _SpeedKernel()
        self._inside = 0.0
        self._previous = None
        self._start = 0.0

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(self._probe())
        self._previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self._probe())

    def _probe(self) -> float:
        """Seconds of one kernel run, with no collection inside it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel.run()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _interrupt(self, signum, frame) -> None:
        sample = self._probe()
        self.samples.append(sample)
        self._inside += sample

    def reference_seconds(self) -> float:
        """The region's seconds, probes excluded, at the reference host's speed."""
        return (self.elapsed - self._inside) * REF_PROBE_S / statistics.mean(self.samples)


# ------------------------------------------------------------- worker side


class _Runner:
    """What a worker does for its one workload."""

    def __init__(self, name: str, seed: int, scale: float):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.scale = scale

    def warmup(self) -> None:
        """Untimed run at 10% of the budget: fills the hash-family memo."""
        run_experiment(self.workload.config(self.seed, self.scale * WARMUP_SCALE))

    def reference(self) -> Optional[str]:
        """Fingerprint of one run of an armed workload's unarmed twin.

        It is the reference the armed runs must reproduce; None when the
        workload is not armed.
        """
        if not self.workload.armed:
            return None
        twin = dataclasses.replace(self.workload, armed=False)
        return fingerprint(run_experiment(twin.config(self.seed, self.scale)))

    def pinned(self) -> str:
        """Fingerprint of one run at ``PIN_SEED`` and smoke scale."""
        return fingerprint(run_experiment(self.workload.config(PIN_SEED, SMOKE_SCALE)))

    def _config(self, cycle_limit: Optional[int] = None) -> ExperimentConfig:
        """A fresh config, collected garbage first so no run pays for another's."""
        config = self.workload.config(self.seed, self.scale)
        if cycle_limit is not None:
            config.cycle_limit = cycle_limit
        gc.collect()
        return config

    def repeat(self) -> dict:
        """One timed full run."""
        config = self._config()
        with SpeedProbe() as speed:
            result = run_experiment(config)
        return {"wall_s": speed.reference_seconds(), "raw_wall_s": speed.elapsed,
                "probes": len(speed.samples), "cycles": result.cycles,
                "commits": result.commits, "fingerprint": fingerprint(result)}

    def setup(self, probes: int) -> List[tuple]:
        """(reference, raw) seconds of ``run_experiment`` at a one-cycle budget.

        That is the set-up (machine, backend, workload data, threads)
        plus each thread's first step.
        """
        times = []
        for _ in range(probes):
            config = self._config(cycle_limit=1)
            with SpeedProbe() as speed:
                run_experiment(config)
            times.append((speed.reference_seconds(), speed.elapsed))
        return times

    def rss(self) -> float:
        """Peak resident set of this worker (VmHWM), MB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace(self, seconds: float, trace_path: Optional[str]) -> dict:
        """Untraced/traced run pairs; per-layer metrics are pair medians.

        Pairs repeat while another fits in ``seconds`` (at least one).
        Only the first traced run's spans are exported.
        """
        deadline = time.perf_counter() + seconds
        pinned = self.pinned()
        self.warmup()
        pairs: List[Dict[str, float]] = []
        fingerprints: List[str] = []
        export_error = None
        last = 0.0
        while not pairs or time.perf_counter() + last <= deadline:
            began = time.perf_counter()
            config = self._config()
            start = time.perf_counter()
            untraced = run_experiment(config)
            untraced_s = time.perf_counter() - start
            config = self._config()
            with LayerTracer() as tracer:
                start = time.perf_counter()
                result = run_experiment(config)
                traced_s = time.perf_counter() - start
            fingerprints += [fingerprint(untraced), fingerprint(result)]
            pairs.append(layer_metrics(tracer, result, traced_s, untraced_s))
            if trace_path is not None and len(pairs) == 1:
                export_error = write_chrome_trace(tracer.spans, self.workload.name, trace_path)
            last = time.perf_counter() - began
        metrics = {name: statistics.median(pair[name] for pair in pairs) for name in pairs[0]}
        return {"metrics": metrics, "fingerprints": fingerprints, "pinned": pinned,
                "export_error": export_error}


def _serve(conn, parent_end, name: str, seed: int, scale: float) -> None:
    """Worker main loop: ``(command, args)`` in, ``(ok, value)`` out."""
    # The fork copied the parent's end of the pipe; without closing it
    # the worker would never see EOF when the parent dies.
    parent_end.close()
    runner = _Runner(name, seed, scale)
    commands: Dict[str, Callable] = {
        "warmup": runner.warmup, "reference": runner.reference, "pinned": runner.pinned,
        "repeat": runner.repeat,
        "setup": runner.setup, "rss": runner.rss, "trace": runner.trace,
    }
    with conn:
        while True:
            try:
                message = conn.recv()
            except EOFError:  # the parent is gone
                return
            if message is None:
                return
            command, args = message
            try:
                reply = (True, commands[command](*args))
            except Exception:  # reported to the parent, which counts the failure
                reply = (False, traceback.format_exc())
            conn.send(reply)


# ------------------------------------------------------------- parent side


class WorkerError(RuntimeError):
    """A command raised inside a worker (the message is its traceback)."""


class Worker:
    """A forked process serving one workload's runs.

    Fork, not spawn: spawn also starts multiprocessing's resource
    tracker, a process nobody waits for that outlives the benchmark.
    """

    def __init__(self, name: str, seed: int, scale: float):
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_serve, args=(child, self._conn, name, seed, scale), name=f"perf-{name}",
            daemon=True,
        )
        self._process.start()
        child.close()

    def call(self, command: str, *args):
        self._conn.send((command, args))
        ok, value = self._conn.recv()
        if not ok:
            raise WorkerError(value)
        return value

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._conn.send(None)
        self._process.join(JOIN_TIMEOUT_S)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._conn.close()


@dataclasses.dataclass
class Timed:
    """One workload's timed-phase samples."""

    repeats: List[dict] = dataclasses.field(default_factory=list)
    #: (reference, raw) seconds of each setup probe.
    setup_s: List[tuple] = dataclasses.field(default_factory=list)
    errors: List[str] = dataclasses.field(default_factory=list)
    #: Fingerprint of the unarmed twin's run, for an armed workload.
    reference: Optional[str] = None
    #: Fingerprint of the ``PIN_SEED`` run at smoke scale.
    pinned: Optional[str] = None
    peak_rss_mb: float = 0.0


def measure(names: List[str], seed: int, scale: float, rounds: int,
            seconds: float) -> Dict[str, Timed]:
    """The timed phase: one :class:`Timed` per workload.

    Runs at least ``rounds`` rounds and then more while another round
    fits in ``seconds`` of the phase.
    """
    deadline = time.perf_counter() + seconds
    timed = {name: Timed() for name in names}
    workers: Dict[str, Worker] = {}
    try:
        for name in names:
            workers[name] = Worker(name, seed, scale)
        for name in names:
            try:
                timed[name].reference = workers[name].call("reference")
                timed[name].pinned = workers[name].call("pinned")
                workers[name].call("warmup")
            except WorkerError as error:
                timed[name].errors.append(str(error))
        done, last = 0, 0.0
        while done < rounds or time.perf_counter() + last <= deadline:
            began = time.perf_counter()
            for name in (names if done % 2 == 0 else names[::-1]):
                try:
                    timed[name].repeats.append(workers[name].call("repeat"))
                    timed[name].setup_s += workers[name].call("setup", SETUP_PROBES)
                except WorkerError as error:
                    timed[name].errors.append(str(error))
            done += 1
            last = time.perf_counter() - began
        for name in names:
            timed[name].peak_rss_mb = workers[name].call("rss")
    finally:
        for worker in workers.values():
            worker.close()
    return timed


def traced(name: str, seed: int, scale: float, seconds: float,
           trace_path: Optional[str]) -> dict:
    """The traced phase for one workload, in a fresh worker."""
    worker = Worker(name, seed, scale)
    try:
        return worker.call("trace", seconds, trace_path)
    finally:
        worker.close()
