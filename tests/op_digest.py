"""The op-digest oracle: one pinned digest per cell of a backend grid.

A cell is one short, seeded simulation.  Its digest is one rolling
sha256 over three streams, tapped from outside the simulator:

* every executed machine op (``FlexTMMachine.tload`` ... ``aload``):
  the op name, the processor and the arguments, then the result's
  value, cycles, conflicts, ``nacked`` and ``success``, then the
  processor's clock afterwards;
* every ``L1Controller.handle_forwarded``: the responder, the
  requestor, the request, the line, the response and ``retained``;
* every ``ChaosEngine._roll`` with a nonzero probability: the site and
  the outcome.

The same taps, and a few more, also count what each run exercised (the
op kinds its threads yield, signature probes, OT refills, director
outcomes) so the scenario tests can check that a cell still does what
it is there for without running it again.  The counts are never hashed.

The taps wrap the class methods before ``Scheduler.run`` binds its op
table, so nothing under ``src/`` knows about them.  ``op_digest.json``
pins each cell's digest beside its ``RunResult`` fingerprint (the
fields ``benchmarks/perf/workloads.fingerprint`` hashes), and
``tests/test_op_digest.py`` recomputes every cell against it.  After a
change that is meant to move simulated results,

    PYTHONPATH=src python -m tests.op_digest

rewrites the table and lists the cells that moved.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, NamedTuple

from benchmarks.perf.workloads import fingerprint
from repro.adversary.director import ScheduleDirector
from repro.adversary.script import ScheduleScript, Step
from repro.chaos.engine import ChaosEngine, ChaosSpec
from repro.coherence.l1 import L1Controller
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.core.processor import FlexTMProcessor
from repro.harness.chaos import profile_spec
from repro.harness.runner import SYSTEMS, ExperimentConfig, run_experiment
from repro.obs.tracer import EventTracer
from repro.params import CacheGeometry, SystemParams, small_test_params
from repro.resilience import DegradeSpec
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import RunResult, Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.signatures.bloom import Signature

TABLE_PATH = Path(__file__).with_name("op_digest.json")

MACHINE_OPS = ("tload", "tstore", "load", "store", "cas", "cas_commit", "aload")

CYCLE_LIMIT = 12_000
SEED = 42
WORKLOADS = ("HashTable", "RBTree", "Vacation-High", "LFUCache")
CHAOS_PROFILES = ("none", "signature", "storm")
#: Dedicated cores, and four threads on two processors with a quantum.
PLACEMENTS = {"dedicated": {}, "4t-on-2p": {"processors": 2, "quantum": 400}}
#: The only backends that pass ``mode`` on; the others ignore it.
MODAL_SYSTEMS = ("FlexTM", "RTM-F")


# ------------------------------------------------------------------ the taps


class Recorder:
    """The rolling digest of one run, and a count of its records."""

    def __init__(self):
        self.sha = hashlib.sha256()
        #: Records per (stream, label): ("op", name), ("forward",
        #: response, retained, cached, side), ("roll", site); and, never
        #: hashed, ("yielded", op kind), ("probe",), ("ot-refill",) and
        #: ("directive", outcome).
        self.counts = Counter()

    def record(self, key: tuple, fields: tuple) -> None:
        self.counts[key] += 1
        self.sha.update(repr(fields).encode())


def _tap_op(name, method, recorder):
    def tapped(self, proc_id, *args):
        result = method(self, proc_id, *args)
        recorder.record(("op", name), (
            name, proc_id, args, result.value, result.cycles, tuple(result.conflicts),
            result.nacked, result.success, self.processors[proc_id].clock.now,
        ))
        return result

    return tapped


def _tap_forward(method, recorder):
    def tapped(self, requestor, req_type, line_address):
        kind, retained = method(self, requestor, req_type, line_address)
        # Where the line is afterwards: the array or victim buffer, and
        # the TMI side buffer.  Counted only.
        cached = (self.array.peek(line_address) is not None
                  or self.victims.contains(line_address))
        side = self.tmi_victims is not None and self.tmi_victims.contains(line_address)
        recorder.record(("forward", kind, retained, cached, side), (
            self.proc_id, requestor, req_type, line_address, kind, retained,
        ))
        return kind, retained

    return tapped


def _tap_roll(method, recorder):
    def tapped(self, site, prob):
        outcome = method(self, site, prob)
        if prob > 0.0:
            recorder.record(("roll", site), (site, outcome))
        return outcome

    return tapped


def _tap_thread(method, recorder):
    """Count the kind of every op a thread yields, ``work`` and
    ``yield_cpu`` included, and pass sends and throws through."""

    def tapped(self):
        ops = method(self)
        resume, value = ops.send, None
        while True:
            try:
                op = resume(value)
            except StopIteration as stop:
                return stop.value
            recorder.counts["yielded", op[0]] += 1
            try:
                resume, value = ops.send, (yield op)
            except BaseException as exc:
                resume, value = ops.throw, exc

    return tapped


def _tap_count(method, recorder, key_of):
    def tapped(self, *args):
        recorder.counts[key_of(*args)] += 1
        return method(self, *args)

    return tapped


@contextlib.contextmanager
def tapped():
    """Wrap the machine ops, the forward handler and the chaos roll
    (hashed), and the threads' op generators, signature probes, OT
    refills and director notes (counted), on their classes for the
    ``with`` block; yields the :class:`Recorder`."""
    recorder = Recorder()
    taps = [(FlexTMMachine, name, _tap_op(name, getattr(FlexTMMachine, name), recorder))
            for name in MACHINE_OPS]
    taps.append((L1Controller, "handle_forwarded",
                 _tap_forward(L1Controller.handle_forwarded, recorder)))
    taps.append((ChaosEngine, "_roll", _tap_roll(ChaosEngine._roll, recorder)))
    taps += [
        (TxThread, "run", _tap_thread(TxThread.run, recorder)),
        (Signature, "member",
         _tap_count(Signature.member, recorder, lambda address: ("probe",))),
        (FlexTMProcessor, "ot_refill",
         _tap_count(FlexTMProcessor.ot_refill, recorder, lambda line: ("ot-refill",))),
        (ScheduleDirector, "_note",
         _tap_count(ScheduleDirector._note, recorder, lambda *note: ("directive", note[-1]))),
    ]
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in taps]
    try:
        for cls, name, tap in taps:
            setattr(cls, name, tap)
        yield recorder
    finally:
        for cls, name, method in saved:
            setattr(cls, name, method)


# ----------------------------------------------------------------- the cells


def _grid() -> Dict[str, Callable[[], RunResult]]:
    cells = {}
    for workload in WORKLOADS:
        for system in sorted(SYSTEMS):
            modes = ConflictMode if system in MODAL_SYSTEMS else (ConflictMode.EAGER,)
            for mode in modes:
                for profile in CHAOS_PROFILES:
                    chaos = None if profile == "none" else profile_spec(profile, SEED, system)
                    for placement, kwargs in PLACEMENTS.items():
                        config = ExperimentConfig(
                            workload=workload, system=system, threads=4, mode=mode,
                            cycle_limit=CYCLE_LIMIT, seed=SEED, params=small_test_params(4),
                            chaos=chaos, **kwargs,
                        )
                        name = f"{workload}/{system}/{mode.value}/{profile}/{placement}"
                        cells[name] = functools.partial(run_experiment, config)
    return cells


def shared_counter_threads(machine, count, items_per_thread=None, yield_on_abort=False):
    """FlexTM threads that increment four shared lines, one per item."""
    runtime = FlexTMRuntime(machine)
    line = machine.params.line_bytes
    shared = [machine.allocate(line, line_aligned=True) for _ in range(4)]

    def items(thread_id):
        k = 0
        while items_per_thread is None or k < items_per_thread:
            def txn(ctx, k=k):
                address = shared[(thread_id + k) % len(shared)]
                value = yield from ctx.read(address)
                yield from ctx.work(k % 7 + 1)
                yield from ctx.write(address, value + 1)

            yield WorkItem(txn)
            k += 1

    return [
        TxThread(thread_id, runtime, items(thread_id), yield_on_abort=yield_on_abort)
        for thread_id in range(count)
    ]


def _hot_lines(tmi_to_victim, chaos=None):
    """Lazy FlexTM transactions that write a shared line, then enough
    private lines to evict it: its TMI copy answers forwards from the
    TMI side buffer or from the overflow table."""
    machine = FlexTMMachine(small_test_params(4), tmi_to_victim=tmi_to_victim)
    if chaos is not None:
        machine.attach(chaos=ChaosEngine(chaos))
    runtime = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
    line = machine.params.line_bytes
    hot = [machine.allocate(line, line_aligned=True) for _ in range(2)]
    private = [[machine.allocate(line, line_aligned=True) for _ in range(24)]
               for _ in range(4)]

    def items(thread_id):
        k = 0
        while True:
            def txn(ctx, k=k):
                address = hot[k % len(hot)]
                value = yield from ctx.read(address)
                yield from ctx.write(address, value + 1)
                for address in private[thread_id]:
                    yield from ctx.write(address, k)

            yield WorkItem(txn)
            k += 1

    threads = [TxThread(thread_id, runtime, items(thread_id)) for thread_id in range(4)]
    return Scheduler(machine, threads).run(cycle_limit=20_000)


def _ot_refills(tmi_to_victim):
    """Two lazy writers share hot lines and each overflows a 4-line L1
    with one to six private lines, then re-reads the hot line and its
    first private lines, so spilled TMI lines come back (from the OT or
    the side buffer) while the OT holds one line or several."""
    params = SystemParams(
        num_processors=2,
        l1=CacheGeometry(size_bytes=256, associativity=1, line_bytes=64),
        l2=CacheGeometry(size_bytes=64 * 1024, associativity=8, line_bytes=64),
        victim_buffer_entries=2,
        ot_initial_sets=4,
    )
    machine = FlexTMMachine(params, tmi_to_victim=tmi_to_victim)
    runtime = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
    hot = [machine.allocate(64, line_aligned=True) for _ in range(2)]
    private = [[machine.allocate(64, line_aligned=True) for _ in range(6)] for _ in range(2)]

    def items(thread_id):
        k = 0
        while True:
            def txn(ctx, k=k):
                address = hot[k % 2]
                value = yield from ctx.read(address)
                yield from ctx.write(address, value + 1)
                for line in private[thread_id][:k % 6 + 1]:
                    yield from ctx.write(line, k)
                yield from ctx.read(address)
                for line in private[thread_id][:3]:
                    yield from ctx.read(line)

            yield WorkItem(txn)
            k += 1

    threads = [TxThread(thread_id, runtime, items(thread_id)) for thread_id in (0, 1)]
    return Scheduler(machine, threads).run(cycle_limit=40_000)


def _degrade_ladder():
    """Resilience, invariants and a tracer armed together, so every step
    runs the per-step observer block, and the serial-irrevocable holder
    is pinned against chaos preemption."""
    return run_experiment(ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=4, cycle_limit=60_000, seed=9,
        mode=ConflictMode.LAZY, params=small_test_params(4),
        chaos=ChaosSpec(seed=11, sched_preempt=0.002, sig_false_positive=0.05),
        invariants=True,
        degrade=DegradeSpec(boost_after=1, eager_after=1, irrevocable_after=2),
        tracer=EventTracer(trace_coherence=False),
    ))


def _yield_on_abort():
    machine = FlexTMMachine(small_test_params(2))
    threads = shared_counter_threads(machine, 4, yield_on_abort=True)
    return Scheduler(machine, threads).run(cycle_limit=15_000)


DIRECTOR_SCRIPT = ScheduleScript(name="op-digest", steps=(
    Step.pin(0),
    Step.run(0, until="ops", count=400),
    Step.stall(1, 1_500),
    Step.preempt(2),
    Step.stall(3, 700),
    Step.place(2),
    Step.run(3, until="commit"),
    Step.run(1, until="begin"),
    Step.run(1, until="ops", count=4),
    Step.wound(1),
    Step.run(1, until="abort"),
    Step.unpin(0),
))


def director_run(director):
    """Five threads on four cores under a short quantum, driven by
    ``director``: the pinned thread is the one a quantum expiry may not
    preempt."""
    machine = FlexTMMachine(small_test_params(4))
    threads = shared_counter_threads(machine, 5)
    return Scheduler(machine, threads, director=director, quantum=300).run(cycle_limit=15_000)


#: The four configurations the hash-seed test runs in fresh interpreters.
HASHSEED_CONFIGS = {
    "HashTable/FlexTM/16t": ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=16, cycle_limit=8_000, seed=42),
    "RBTree/TL2/16t": ExperimentConfig(
        workload="RBTree", system="TL2", threads=16, cycle_limit=8_000, seed=42),
    "Vacation-High/FlexTM/8t-on-3p-quantum": ExperimentConfig(
        workload="Vacation-High", system="FlexTM", threads=8, processors=3,
        quantum=1_500, cycle_limit=12_000, seed=7),
    "HashTable/FlexTM/8t-storm": ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=8, cycle_limit=8_000, seed=5,
        chaos=profile_spec("storm", 5, "FlexTM")),
}
HASHSEED_CELLS = tuple(f"named/hashseed/{name}" for name in HASHSEED_CONFIGS)

#: Scenarios the grid lacks: evicted TMI lines (with and without a
#: signature that misses them), spilled lines read back, the ladder pinning its irrevocable
#: holder, yield-on-abort, a director script and the hash-seed configs.
NAMED: Dict[str, Callable[[], RunResult]] = {
    "hot-lines/overflow-table": functools.partial(_hot_lines, False),
    "hot-lines/tmi-victims": functools.partial(_hot_lines, True),
    "hot-lines/overflow-table/sig-fn":
        functools.partial(_hot_lines, False, ChaosSpec(seed=5, sig_false_negative=0.5)),
    "hot-lines/tmi-victims/sig-fn":
        functools.partial(_hot_lines, True, ChaosSpec(seed=5, sig_false_negative=0.5)),
    "ot-refills/overflow-table": functools.partial(_ot_refills, False),
    "ot-refills/tmi-victims": functools.partial(_ot_refills, True),
    "degrade-ladder": _degrade_ladder,
    "yield-on-abort": _yield_on_abort,
    "director": lambda: director_run(ScheduleDirector(DIRECTOR_SCRIPT)),
    **{f"hashseed/{name}": functools.partial(run_experiment, config)
       for name, config in HASHSEED_CONFIGS.items()},
}

CELLS: Dict[str, Callable[[], RunResult]] = {
    **_grid(), **{f"named/{name}": run for name, run in NAMED.items()},
}


# ------------------------------------------------------------------ the table


class Cell(NamedTuple):
    digest: str
    fingerprint: str
    counts: Counter
    result: RunResult


@functools.lru_cache(maxsize=None)
def run_cell(name: str) -> Cell:
    """Run one cell under the taps (memoized: a cell is deterministic)."""
    with tapped() as recorder:
        result = CELLS[name]()
    return Cell(recorder.sha.hexdigest(), fingerprint(result), recorder.counts, result)


def tally(cell: Cell, stream: str) -> Dict[tuple, int]:
    """The cell's counts of one stream, keyed by the rest of their label."""
    return {key[1:]: count for key, count in cell.counts.items() if key[0] == stream}


def entry(name: str) -> dict:
    """A cell's row of the table."""
    cell = run_cell(name)
    return {"digest": cell.digest, "fingerprint": cell.fingerprint}


def load_table() -> Dict[str, dict]:
    with open(TABLE_PATH) as handle:
        return json.load(handle)["cells"]


def pinned_cell(name: str) -> Cell:
    """Run one cell and check it against its pin."""
    assert entry(name) == load_table()[name], f"{name} moved from its pin"
    return run_cell(name)


def main() -> int:
    """Rewrite the pinned table; list the cells that moved."""
    old = load_table() if TABLE_PATH.exists() else {}
    new = {name: entry(name) for name in CELLS}
    moved = sorted(name for name in new.keys() | old.keys() if new.get(name) != old.get(name))
    document = {"schema": "repro.op_digest/v1", "cells": new}
    TABLE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    for name in moved:
        print(name)
    print(f"{len(moved)} of {len(new)} cells moved; wrote {TABLE_PATH.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
