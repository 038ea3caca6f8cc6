"""The timing-driven multi-core scheduler.

The executor always steps the thread whose processor clock is furthest
behind (ties broken by processor id), so simulated interleavings follow
the relative progress of the cores — the property that makes contention
pathologies reproducible (DESIGN.md §4).  The policy is served by a
min-heap of ``(clock, proc)`` entries with lazy re-keying: clocks only
move forward, so a stored key is never ahead of its processor's clock,
and an entry is refreshed only when it reaches the top.  A step that
executes an op re-keys its processor's entry itself when that entry is
still the top, the refresh the next pick would make first; the key
stays ``(clock, proc)``, so ties break as before.  A step therefore
costs O(log cores), not O(cores), and everything else that advances a
clock (a switch cost, a spurious alert, a director's ``stall``) needs to
tell the heap nothing: the lazy re-keying covers it.

:meth:`Scheduler.run` is the one step loop.  Each iteration lets the
per-step observers see the previous step, picks a processor (refreshing
the heap's top in place), resumes that processor's thread and executes
the op it yields.  The tracer is the exception: it is called only on the
steps it asks for (a metrics hub's pressure samples) and once its log
holds a chunk (see :mod:`repro.obs.tracer`).  The loop binds the
machine, its hooks and its op methods to locals once per run, and
serves every kind of run: plain, chaos-armed, pinned, quantum-sliced,
observed and directed.

With more threads than processors (or an explicit quantum) the
scheduler context-switches: the OS path spills the running
transaction's hardware state through the backend's ``suspend`` hook,
installs summary signatures, and later resumes (or abort-restarts, on
migration) via ``resume`` — Section 5 of the paper.

Scheduling is also scriptable: a *director* (see
:class:`repro.adversary.director.ScheduleDirector`) may be installed to
take over processor selection.  Each iteration the loop asks the
director which processor to step instead of taking the heap's top, and
the director can use the first-class control primitives —
:meth:`Scheduler.park`, :meth:`Scheduler.place`,
:meth:`Scheduler.release_parked`, :meth:`Scheduler.free_processors`,
:meth:`Scheduler.running_threads` — to pin exact interleavings, falling
back to :meth:`Scheduler.next_processor` (the same least-advanced-clock
pick) when it has no opinion.  The primitives reuse the same
suspend/resume path as quantum preemption, so scripted context switches
cost and behave exactly like organic ones.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.machine import FlexTMMachine
from repro.errors import SchedulerError
from repro.obs.tracer import CHUNK_RECORDS, NULL_TRACER
from repro.runtime.api import TMBackend
from repro.runtime.txthread import TxThread

#: OS cost to switch a thread out / in (trap + register state).
SWITCH_OUT_CYCLES = 400
SWITCH_IN_CYCLES = 400
#: Handler cost of a spurious (chaos-injected) alert: trap in, re-read
#: the TSW, see ACTIVE, return.
SPURIOUS_ALERT_CYCLES = 15


@dataclasses.dataclass
class RunResult:
    """Aggregate outcome of one simulation run."""

    cycles: int
    commits: int
    aborts: int
    nontx_items: int
    per_thread: List[Dict[str, int]]
    stats: Dict[str, int]
    conflict_degrees: List[int]
    #: Abort counts keyed by conflict kind ("R-W", "W-R", "W-W", "SI",
    #: "migration", "watchdog", "irrevocable", "unattributed").
    aborts_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Escalation-ladder counters (watchdog boosts/kills, resilience
    #: rung transitions, irrevocable grants) — empty unless a watchdog
    #: or degradation controller was armed.
    escalations: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: The run's EventTracer when one was attached (None otherwise; set
    #: by ``run_experiment`` from its config).  Excluded from
    #: comparison/repr: tracing never changes the numbers.
    trace: Optional[object] = dataclasses.field(default=None, compare=False, repr=False)
    #: The run's MetricsHub when one was armed (None otherwise; set like
    #: ``trace``).  Excluded from comparison/repr for the same reason.
    metrics: Optional[object] = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def throughput(self) -> float:
        """Committed transactions per million cycles (Figure 4's metric)."""
        if self.cycles <= 0:
            return 0.0
        return self.commits * 1_000_000 / self.cycles

    @property
    def abort_ratio(self) -> float:
        total = self.commits + self.aborts
        return self.aborts / total if total else 0.0


class _Slot:
    """Book-keeping for one thread's generator."""

    __slots__ = ("thread", "gen", "pending_value", "pending_exc", "slice_start", "done", "poll")

    def __init__(self, thread: TxThread):
        self.thread = thread
        self.gen = thread.run()
        self.pending_value = None
        self.pending_exc: Optional[BaseException] = None
        self.slice_start = 0
        self.done = False
        #: The backend's abort poll, bound by :meth:`Scheduler.run`; None
        #: when the backend only inherits ``TMBackend.check_aborted``.
        self.poll: Optional[Callable[[TxThread], bool]] = None


class Scheduler:
    """Drives a set of TxThreads over the machine's processors."""

    def __init__(
        self,
        machine: FlexTMMachine,
        threads: List[TxThread],
        quantum: Optional[int] = None,
        processors: Optional[List[int]] = None,
        watchdog=None,
        director=None,
    ):
        if not threads:
            raise SchedulerError("no threads to run")
        self.machine = machine
        self.slots = [_Slot(thread) for thread in threads]
        self.quantum = quantum
        self.watchdog = watchdog
        #: Scripted-schedule controller (None = default clock policy).
        self.director = director
        if watchdog is not None:
            watchdog.attach(machine, threads[0].backend)
        available = processors if processors is not None else list(range(machine.params.num_processors))
        if not available:
            raise SchedulerError("no processors available")
        self._procs = available
        self._clocks = [processor.clock for processor in machine.processors]
        self._running: Dict[int, _Slot] = {}
        #: Dispatch heap: one ``(clock, proc)`` entry per processor in
        #: ``_keyed``.  Every running processor has an entry; a stored
        #: clock may lag the live one (re-keyed lazily at the top), and
        #: entries of processors that left ``_running`` are dropped when
        #: they surface.
        self._heap: List[Tuple[int, int]] = []
        self._keyed: Set[int] = set()
        self._ready: collections.deque = collections.deque()
        #: thread_id -> slot, descheduled by a director and *not* in the
        #: ready queue: only an explicit place()/release_parked() (or
        #: end-of-script cleanup) makes a parked thread runnable again.
        self._parked: Dict[int, _Slot] = {}
        for slot in self.slots:
            if len(self._running) < len(available):
                proc = available[len(self._running)]
                slot.thread.processor = proc
                slot.slice_start = 0
                self._running[proc] = slot
                self._key(proc)
            else:
                self._ready.append(slot)
        if len(self.slots) > len(available) and self.quantum is None:
            self.quantum = machine.params.quantum_cycles

    # ---------------------------------------------------------------- running

    def run(self, cycle_limit: int) -> RunResult:
        """Simulate until every thread finishes or passes the limit.

        The scheduler's one step loop (see the module docstring).
        Everything a step needs is bound to a local here, once per run.
        """
        if cycle_limit <= 0:
            raise SchedulerError("cycle_limit must be positive")
        machine = self.machine
        processors = machine.processors
        invariants = machine.invariants
        resilience = machine.resilience
        tracer = machine.tracer
        chaos = machine.chaos
        watchdog = self.watchdog
        director = self.director
        quantum = self.quantum
        heap = self._heap
        keyed = self._keyed
        running = self._running
        clocks = self._clocks
        ready = self._ready
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        # Bound here, not at construction, so a method wrapped on the
        # machine's class before the run is what every step calls.
        ops = {
            "tload": machine.tload,
            "tstore": machine.tstore,
            "load": machine.load,
            "store": machine.store,
            "cas": machine.cas,
            "cas_commit": machine.cas_commit,
            "aload": machine.aload,
        }
        # The serial-irrevocable holder is pinned: neither chaos storms
        # nor quantum expiry may deschedule it (a migration would abort
        # it and void the forward-progress guarantee).  The chaos dice
        # still roll so the injection streams stay aligned.  A schedule
        # director can pin threads the same way (the "pin" directive).
        pinning = resilience is not None or director is not None
        # The inherited poll always answers False, so it is never called.
        never_aborts = TMBackend.check_aborted
        for slot in self.slots:
            poll = slot.thread.backend.check_aborted
            slot.poll = None if getattr(poll, "__func__", None) is never_aborts else poll
        observed = not (
            watchdog is None
            and resilience is None
            and invariants is None
            and tracer is NULL_TRACER
        )
        # The tracer's log, and its cadence: the step due its next call
        # (1 for the run's first) and the step of its last call.  It is
        # called early once the log holds a chunk.
        log = tracer._log
        due = 1
        told = 0
        steps = 0
        # A step has run that the observers have not seen yet.
        unseen = False
        while True:
            if unseen:
                steps += 1
                if watchdog is not None:
                    watchdog.observe(self)
                if resilience is not None:
                    resilience.on_step(self)
                if tracer.enabled and (steps >= due or len(log) >= CHUNK_RECORDS):
                    due = steps + tracer.step(self, steps - told)
                    told = steps
                if invariants is not None and steps % invariants.check_interval == 0:
                    invariants.check_machine(machine)
            # ---- pick: the director's choice, else the heap's top
            # (what ``next_processor`` answers, refreshed in place).
            if director is not None:
                proc = director.pick(self, cycle_limit)
                if proc is None:
                    break
                slot = running[proc]
                clock = clocks[proc]
            else:
                while heap:
                    stored, proc = heap[0]
                    slot = running.get(proc)
                    if slot is None or slot.done:
                        heappop(heap)
                        keyed.discard(proc)
                        continue
                    clock = clocks[proc]
                    now = clock._now
                    if now == stored:
                        break
                    heapreplace(heap, (now, proc))
                else:
                    break
                if now >= cycle_limit:
                    break
            unseen = observed
            # ---- step: resume the thread, execute the op it yields.
            thread = slot.thread
            pinned = pinning and (
                (resilience is not None and resilience.pinned(thread))
                or (director is not None and director.pins(thread))
            )
            if chaos is not None and chaos.enabled:
                if chaos.spurious_alert():
                    processors[proc].alerts.raise_alert(-1, "spurious")
                    clock.advance(SPURIOUS_ALERT_CYCLES)
                if chaos.forced_preempt() and not pinned:
                    # Context-switch storm: preempt regardless of quantum.
                    self._preempt(proc, slot)
                    continue
            if (
                quantum is not None
                and ready
                and not pinned
                and clock._now - slot.slice_start >= quantum
            ):
                self._preempt(proc, slot)
                continue
            exc = slot.pending_exc
            if exc is None:
                poll = slot.poll
                if poll is not None and thread.in_transaction and poll(thread):
                    exc = thread.backend.abort_exception(thread, "status word changed")
            try:
                if exc is None:
                    op = slot.gen.send(slot.pending_value)
                else:
                    slot.pending_exc = None
                    op = slot.gen.throw(exc)
            except StopIteration:
                self._retire(proc, slot)
                continue
            # The op engine.  A clock advance is at least one cycle, so
            # the clock is bumped directly rather than through the
            # negative check of ``CycleClock.advance``.
            kind = op[0]
            if kind == "work":
                cycles = op[1]
                slot.pending_value = None
            else:
                method = ops.get(kind)
                if method is None:
                    if kind != "yield_cpu":
                        raise SchedulerError(f"unknown op {op!r}")
                    self._voluntary_yield(proc, slot)
                    slot.pending_value = None
                    continue
                # Spelled out for the common arities:
                # ``method(proc, *op[1:])`` builds two tuples per call.
                nargs = len(op)
                if nargs == 2:
                    result = method(proc, op[1])
                elif nargs == 3:
                    result = method(proc, op[1], op[2])
                else:
                    result = method(proc, *op[1:])
                cycles = result.cycles
                slot.pending_value = result
            now = clock._now + (cycles if cycles > 1 else 1)
            clock._now = now
            # Still on top of the heap: re-key now, the refresh the next
            # pick would make first.  Nothing touches the heap between a
            # pick and an executed op, so the heap's own pick is on top.
            if director is None or heap[0][1] == proc:
                heapreplace(heap, (now, proc))
        if invariants is not None:
            invariants.check_machine(machine)
        return self._result(cycle_limit, steps - told)

    def next_processor(self, cycle_limit: int) -> Optional[int]:
        """Least-advanced running processor (lowest id on ties), or None
        when it has already reached ``cycle_limit`` or nothing runs.

        The directors' fallback: :meth:`run` makes the same pick inline
        when no director is installed.
        """
        heap = self._heap
        running = self._running
        clocks = self._clocks
        while heap:
            stored, proc = heap[0]
            slot = running.get(proc)
            if slot is None or slot.done:
                heapq.heappop(heap)
                self._keyed.discard(proc)
                continue
            now = clocks[proc]._now
            if now != stored:
                heapq.heapreplace(heap, (now, proc))
                continue
            return proc if now < cycle_limit else None
        return None

    def _key(self, proc: int) -> None:
        """Give a newly running processor a heap entry if it has none."""
        if proc not in self._keyed:
            self._keyed.add(proc)
            heapq.heappush(self._heap, (self._clocks[proc]._now, proc))

    # ------------------------------------------------------- context switching

    def _switch_out(self, proc: int, slot: _Slot, counter: str) -> None:
        """Spill a running thread's state (trap + suspend + OS cost).

        The caller emits the scheduling event (the tracer-event
        registry wants literal kinds at emit sites) and decides where
        the slot goes next (ready queue, parked set); this helper only
        performs the switch-out itself, so quantum preemption,
        voluntary yields, and scripted parks share one timing model.
        """
        thread = slot.thread
        thread.saved_ctx = thread.backend.suspend(thread)
        self.machine.processors[proc].clock.advance(SWITCH_OUT_CYCLES)
        self.machine.stats.counter(counter).increment()
        thread.processor = None

    def _preempt(self, proc: int, slot: _Slot) -> None:
        """Quantum expiry: switch the running thread out (Section 5)."""
        tracer = self.machine.tracer
        now = self.machine.processors[proc].clock.now
        if tracer.enabled:
            tracer.sched(proc, now, "preempt", slot.thread.thread_id)
        self._switch_out(proc, slot, "ctxsw.switches")
        self._ready.append(slot)
        self._dispatch(proc)

    def _voluntary_yield(self, proc: int, slot: _Slot) -> None:
        """yield_cpu op: give the core away if anyone is waiting."""
        if not self._ready:
            self.machine.processors[proc].clock.advance(1)
            return
        tracer = self.machine.tracer
        now = self.machine.processors[proc].clock.now
        if tracer.enabled:
            tracer.sched(proc, now, "yield", slot.thread.thread_id)
        self._switch_out(proc, slot, "ctxsw.yields")
        self._ready.append(slot)
        self._dispatch(proc)

    def _install(self, proc: int, slot: _Slot) -> None:
        """Resume one descheduled thread on a free processor."""
        thread = slot.thread
        thread.processor = proc
        clock = self.machine.processors[proc].clock
        clock.advance(SWITCH_IN_CYCLES)
        status = thread.backend.resume(thread, proc, thread.saved_ctx)
        thread.saved_ctx = None
        if status == "aborted":
            slot.pending_exc = thread.backend.abort_exception(
                thread, "aborted while descheduled"
            )
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.sched(
                proc, clock.now, "dispatch", thread.thread_id, status=status or ""
            )
        slot.slice_start = clock.now
        self._running[proc] = slot
        self._key(proc)

    def _dispatch(self, proc: int) -> None:
        """Give a free processor to the next ready thread."""
        if not self._ready:
            self._running.pop(proc, None)
            return
        slot = self._ready.popleft()
        self._install(proc, slot)

    # ------------------------------------------------- director control surface

    def slot_of(self, thread_id: int) -> Optional[_Slot]:
        """The slot for one thread id (None for an unknown id)."""
        for slot in self.slots:
            if slot.thread.thread_id == thread_id:
                return slot
        return None

    def processor_of(self, thread_id: int) -> Optional[int]:
        """The processor a thread currently occupies (None if not running)."""
        for proc, slot in self._running.items():
            if slot.thread.thread_id == thread_id:
                return proc
        return None

    def running_threads(self) -> Tuple[Tuple[int, int], ...]:
        """``(proc, thread_id)`` of every running thread, in processor order."""
        return tuple(sorted(
            (proc, slot.thread.thread_id) for proc, slot in self._running.items()
        ))

    def free_processors(self) -> List[int]:
        """Processors with no installed thread, in stable (sorted) order."""
        return sorted(proc for proc in self._procs if proc not in self._running)

    def park(self, thread_id: int, requeue: bool = False) -> bool:
        """Deschedule a running thread without re-queueing it.

        The thread's state is spilled through the backend's normal
        ``suspend`` path (same OS cost as a quantum preempt) but the
        slot moves to the parked set instead of the ready queue, so
        *only* an explicit :meth:`place` or :meth:`release_parked`
        makes it runnable again — exact-interleaving control.  With
        ``requeue=True`` the slot goes to the tail of the ready queue
        instead, and the freed processor stays free.  Returns False
        when the thread is not currently running.
        """
        proc = self.processor_of(thread_id)
        if proc is None:
            return False
        slot = self._running.pop(proc)
        tracer = self.machine.tracer
        now = self.machine.processors[proc].clock.now
        if tracer.enabled:
            tracer.sched(proc, now, "preempt", slot.thread.thread_id)
        self._switch_out(proc, slot, "ctxsw.switches")
        if requeue:
            self._ready.append(slot)
        else:
            self._parked[thread_id] = slot
        return True

    def place(self, thread_id: int, proc: Optional[int] = None) -> bool:
        """Install a parked (or still-queued) thread on a free processor.

        ``proc=None`` picks the lowest-numbered free processor.
        Resuming on a different processor than the thread suspended on
        follows the backend's migration policy (FlexTM abort-restarts
        the transaction).  Returns False when the thread is already
        running, is done, or no suitable processor is free.
        """
        slot = self._parked.pop(thread_id, None)
        if slot is None:
            for queued in list(self._ready):
                if queued.thread.thread_id == thread_id:
                    self._ready.remove(queued)
                    slot = queued
                    break
        if slot is None or slot.done:
            return False
        free = self.free_processors()
        if proc is None:
            if not free:
                self._parked[thread_id] = slot
                return False
            proc = free[0]
        elif proc not in free:
            self._parked[thread_id] = slot
            return False
        self._install(proc, slot)
        return True

    def release_parked(self) -> None:
        """Return every parked thread to the ready queue (id order) and
        fill free processors — the end-of-script cleanup that hands
        control back to the default policy."""
        for thread_id in sorted(self._parked):
            self._ready.append(self._parked.pop(thread_id))
        for proc in self.free_processors():
            if not self._ready:
                break
            self._dispatch(proc)

    def _retire(self, proc: int, slot: _Slot) -> None:
        slot.done = True
        slot.thread.processor = None
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.sched(
                proc, self.machine.processors[proc].clock.now, "retire",
                slot.thread.thread_id,
            )
        self._running.pop(proc, None)
        if self._ready:
            self._dispatch(proc)

    # ----------------------------------------------------------------- result

    def tally(self, cycle_limit: int) -> Tuple[int, int, int, Dict[str, int]]:
        """``(cycles, commits, aborts, aborts_by_kind)`` as far as the
        threads got: the run's result, or a raised run's partial counts."""
        threads = [slot.thread for slot in self.slots]
        aborts_by_kind: Dict[str, int] = {}
        for thread in threads:
            for kind, count in thread.abort_kinds.items():
                aborts_by_kind[kind] = aborts_by_kind.get(kind, 0) + count
        return (
            min(self.machine.max_cycle(), cycle_limit),
            sum(thread.commits for thread in threads),
            sum(thread.aborts for thread in threads),
            dict(sorted(aborts_by_kind.items())),
        )

    def _result(self, cycle_limit: int, untold_steps: int) -> RunResult:
        threads = [slot.thread for slot in self.slots]
        elapsed, commits, aborts, aborts_by_kind = self.tally(cycle_limit)
        nontx = sum(thread.nontx_items for thread in threads)
        degrees = self.machine.stats.histogram("cst.conflict_degree")
        escalations: Dict[str, int] = {}
        if self.watchdog is not None:
            escalations["watchdog_escalations"] = self.watchdog.escalations
            escalations["watchdog_kills"] = self.watchdog.forced_aborts
        resilience = self.machine.resilience
        if resilience is not None:
            escalations.update(resilience.escalation_counters())
        if threads:
            # Backend-intrinsic ladders (the htmbe fallback policy) report
            # through the same escalations surface, under fallback_* keys
            # so they never collide with the controller's counters.
            escalations.update(threads[0].backend.escalation_counters())
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.finalize(
                [proc.clock.now for proc in self.machine.processors], untold_steps
            )
        return RunResult(
            cycles=elapsed,
            commits=commits,
            aborts=aborts,
            nontx_items=nontx,
            per_thread=[
                {
                    "thread_id": thread.thread_id,
                    "commits": thread.commits,
                    "aborts": thread.aborts,
                    "nontx_items": thread.nontx_items,
                }
                for thread in threads
            ],
            stats=self.machine.stats.snapshot(),
            conflict_degrees=list(degrees._samples),
            aborts_by_kind=aborts_by_kind,
            escalations=escalations,
        )
