"""Cycle-attribution profiling.

Consumes an :class:`~repro.obs.tracer.EventTracer` stream and buckets
every simulated processor cycle into the categories the paper's
Figure 5 discussion reasons about informally:

* ``useful_work`` — cycles inside attempts that went on to commit;
* ``stalled_on_conflict`` — backoff/wait cycles charged by the conflict
  manager and the post-abort retry backoff;
* ``aborted_discarded`` — cycles inside attempts that aborted (plus
  work in flight when the run hit its cycle limit);
* ``overflow_walk`` — overflow-table spill and refill walks;
* ``non_tx`` — everything outside transactions: non-transactional
  items, scheduler switch costs, idle tails.

The attribution is a per-processor state machine over the event stream.
Every cycle lands in exactly one bucket, so the buckets sum to the
total simulated cycles (``sum`` of each processor's final clock) by
construction — the invariant tests/obs/test_profiler.py pins down.

Durations reported by events fall in two classes: *settled* durations
(the cycles already elapsed when the event was emitted — conflict-
manager backoffs) are moved out of the enclosing bucket immediately;
*unsettled* durations (overflow walks, emitted mid-operation before the
issuing processor's clock advances) are parked as deferred transfers
and satisfied by the next cycles that flush on that processor.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.obs.tracer import EventTracer, TraceEvent

BUCKETS = (
    "useful_work",
    "stalled_on_conflict",
    "aborted_discarded",
    "overflow_walk",
    "non_tx",
)

#: Event kinds whose duration is processor time spent walking the OT.
_OVERFLOW_WALK_KINDS = ("overflow_spill", "overflow_walk")
#: Scheduler events that take the running thread off the core.
_SWITCH_OUT_KINDS = ("preempt", "yield")


@dataclasses.dataclass
class ProcessorProfile:
    """One processor's cycle buckets."""

    proc: int
    useful_work: int = 0
    stalled_on_conflict: int = 0
    aborted_discarded: int = 0
    overflow_walk: int = 0
    non_tx: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, bucket) for bucket in BUCKETS)


@dataclasses.dataclass
class CycleProfile:
    """The whole machine's attribution: per-processor + aggregate."""

    processors: List[ProcessorProfile]

    @property
    def total_cycles(self) -> int:
        return sum(profile.total for profile in self.processors)

    def aggregate(self) -> Dict[str, int]:
        out = {bucket: 0 for bucket in BUCKETS}
        for profile in self.processors:
            for bucket in BUCKETS:
                out[bucket] += getattr(profile, bucket)
        return out


class _ProcState:
    """Attribution state machine for one processor."""

    __slots__ = ("profile", "last", "in_tx", "pending_tx", "deferred_overflow")

    def __init__(self, proc: int):
        self.profile = ProcessorProfile(proc)
        self.last = 0
        self.in_tx = False
        #: Cycles accumulated by the current attempt, awaiting its fate.
        self.pending_tx = 0
        #: Overflow-walk cycles announced but not yet elapsed.
        self.deferred_overflow = 0

    def flush(self, cycle: int) -> None:
        """Assign the cycles since the last event to a bucket."""
        delta = cycle - self.last
        if delta <= 0:
            return
        self.last = cycle
        if self.deferred_overflow:
            take = min(delta, self.deferred_overflow)
            self.profile.overflow_walk += take
            self.deferred_overflow -= take
            delta -= take
            if not delta:
                return
        if self.in_tx:
            self.pending_tx += delta
        else:
            self.profile.non_tx += delta

    def settle_stall(self, dur: int) -> None:
        """Move already-elapsed wait cycles into the stalled bucket."""
        if self.in_tx:
            take = min(dur, self.pending_tx)
            self.pending_tx -= take
        else:
            take = min(dur, self.profile.non_tx)
            self.profile.non_tx -= take
        self.profile.stalled_on_conflict += take

    def close_attempt(self, committed: bool, extra: int = 0) -> None:
        spent = self.pending_tx + extra
        self.pending_tx = 0
        if committed:
            self.profile.useful_work += spent
        else:
            self.profile.aborted_discarded += spent
        self.in_tx = False


class CycleProfiler:
    """Builds a :class:`CycleProfile` from a finalized event trace."""

    def __init__(self, tracer: EventTracer):
        if not tracer.proc_cycles:
            raise ValueError(
                "tracer has no final processor cycles; profile after the "
                "scheduler finalizes the run"
            )
        self.tracer = tracer

    def profile(self) -> CycleProfile:
        states = {
            proc: _ProcState(proc) for proc in range(len(self.tracer.proc_cycles))
        }
        #: Attempt cycles stashed while a mid-transaction thread is off-core.
        stashed: Dict[int, int] = {}
        for event in self.tracer.events:
            state = states.get(event.proc)
            if state is None:  # event from an unknown processor; skip
                continue
            self._apply(event, state, stashed)
        for proc, final_cycle in enumerate(self.tracer.proc_cycles):
            state = states[proc]
            state.flush(final_cycle)
            if state.in_tx or state.pending_tx:
                # The run's cycle limit cut this attempt short: the work
                # was never committed, so it counts as discarded.
                state.close_attempt(committed=False)
        if states:
            # Threads suspended mid-transaction when the run ended: their
            # stashed attempt cycles were never committed, so discarded.
            states[0].profile.aborted_discarded += sum(stashed.values())
        return CycleProfile(
            processors=[states[proc].profile for proc in sorted(states)]
        )

    def _apply(self, event: TraceEvent, state: _ProcState,
               stashed: Dict[int, int]) -> None:
        kind = event.kind
        state.flush(event.cycle)
        if kind == "tx_begin":
            if state.in_tx:
                # Nested or restarted begin without a visible end: treat
                # the open attempt as discarded rather than losing it.
                state.close_attempt(committed=False)
            state.in_tx = True
            state.pending_tx = 0
        elif kind == "tx_commit":
            state.close_attempt(committed=True, extra=stashed.pop(event.thread, 0))
        elif kind == "tx_abort":
            state.close_attempt(committed=False, extra=stashed.pop(event.thread, 0))
        elif kind == "conflict_stall":
            state.settle_stall(event.dur)
        elif kind in _OVERFLOW_WALK_KINDS:
            # Announced mid-operation: the walk cycles land on the clock
            # when the enclosing operation retires, so defer the transfer.
            state.deferred_overflow += event.dur
        elif kind in _SWITCH_OUT_KINDS:
            if state.in_tx:
                stashed[event.thread] = stashed.get(event.thread, 0) + state.pending_tx
                state.pending_tx = 0
                state.in_tx = False
        elif kind == "dispatch":
            if event.thread in stashed and event.cause != "aborted":
                state.in_tx = True
                state.pending_tx = stashed.pop(event.thread)
        # All other kinds (reads, conflicts, alerts, coherence) are
        # informational: the flush above already attributed their cycles.


def profile_run(trace: Optional[EventTracer]) -> Optional[CycleProfile]:
    """Convenience: profile a RunResult's trace handle (None-safe)."""
    if trace is None:
        return None
    return CycleProfiler(trace).profile()
