"""The ScheduleDirector: executes a ScheduleScript through the scheduler.

The scheduler asks an installed director ``pick(scheduler, cycle_limit)``
once per iteration instead of running its least-advanced-clock policy.
The director interprets the script's directives in order:

* side-effect directives (``preempt``/``place``/``wound``/``stall``/
  ``pin``/``unpin``) execute immediately through the scheduler's
  control primitives and advance to the next directive without
  consuming a scheduler step;
* a ``run`` directive repeatedly returns the target thread's processor
  — installing the thread first if it is parked or queued, evicting a
  non-pinned bystander if every core is busy — until its ``until``
  condition holds or its step budget runs out.

Every directive resolution is appended to :attr:`ScheduleDirector.log`
with a machine-readable outcome, so a conformance report can show *how*
the schedule actually unfolded (a directive that could not apply —
wounding a descriptor-less STM thread, say — is a logged no-op, not an
error: the catalog runs unchanged across all six backends).

When the script is exhausted the director parks nothing further: it
releases any still-parked threads back to the ready queue and defers
to the scheduler's default policy so the run drains normally.  The
director consumes no randomness, so a (script, workload) pair replays
bit-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.adversary.script import ScheduleScript, Step


class ScheduleDirector:
    """Interprets one ScheduleScript; plugs into Scheduler(director=...)."""

    def __init__(self, script: ScheduleScript):
        self.script = script
        self.finished = False
        #: Directive resolutions: {index, action, thread, outcome, cycle}.
        self.log: List[Dict[str, object]] = []
        self._index = 0
        self._pinned: Set[int] = set()
        #: Baseline bookkeeping for the active run directive.
        self._run_index = -1
        self._baseline_commits = 0
        self._baseline_aborts = 0
        self._steps_used = 0

    # -- scheduler hooks -----------------------------------------------------

    def pins(self, thread) -> bool:
        """True when a pin directive shields this thread from preemption."""
        return thread.thread_id in self._pinned

    def pick(self, scheduler, cycle_limit: int) -> Optional[int]:
        """Choose the processor to step (None ends the run)."""
        while not self.finished:
            if self._index >= len(self.script.steps):
                self._finish(scheduler)
                break
            step = self.script.steps[self._index]
            if step.action == "run":
                proc = self._run_step(scheduler, step, cycle_limit)
                if proc is not None:
                    return proc
            else:
                self._apply(scheduler, step)
        return scheduler.next_processor(cycle_limit)

    # -- directive interpretation --------------------------------------------

    def _finish(self, scheduler) -> None:
        self.finished = True
        self._pinned.clear()
        scheduler.release_parked()
        self._note(scheduler, len(self.script.steps), "end-of-script", -1,
                   "released")

    def _note(self, scheduler, index: int, action: str, thread: int,
              outcome: str) -> None:
        self.log.append({
            "index": index,
            "action": action,
            "thread": thread,
            "outcome": outcome,
            "cycle": scheduler.machine.max_cycle(),
        })

    def _advance(self, scheduler, step: Step, outcome: str) -> None:
        self._note(scheduler, self._index, step.action, step.thread, outcome)
        self._index += 1

    def _apply(self, scheduler, step: Step) -> None:
        """Execute one side-effect directive and advance past it."""
        if step.action == "preempt":
            ok = scheduler.park(step.thread)
            self._advance(scheduler, step, "parked" if ok else "not-running")
        elif step.action == "place":
            ok = scheduler.place(step.thread, step.processor)
            self._advance(scheduler, step, "placed" if ok else "not-placeable")
        elif step.action == "wound":
            self._advance(scheduler, step, self._wound(scheduler, step))
        elif step.action == "stall":
            proc = scheduler.processor_of(step.thread)
            if proc is None:
                self._advance(scheduler, step, "not-running")
            else:
                scheduler.machine.processors[proc].clock.advance(step.count)
                self._advance(scheduler, step, "stalled")
        elif step.action == "pin":
            self._pinned.add(step.thread)
            self._advance(scheduler, step, "pinned")
        elif step.action == "unpin":
            self._pinned.discard(step.thread)
            self._advance(scheduler, step, "unpinned")
        else:  # pragma: no cover - Step validation rejects unknown actions
            self._advance(scheduler, step, "unknown-action")

    def _wound(self, scheduler, step: Step) -> str:
        """Force-abort the target's in-flight transaction (OS path)."""
        slot = scheduler.slot_of(step.thread)
        if slot is None:
            return "unknown-thread"
        descriptor = slot.thread.descriptor
        if descriptor is None:
            # STM backends keep no hardware descriptor; the directive
            # is a logged no-op so one catalog spans all six systems.
            return "no-descriptor"
        if scheduler.machine.force_abort(descriptor, by=-1, kind="adversary"):
            return "wounded"
        return "no-active-transaction"

    # -- the run directive ---------------------------------------------------

    def _run_step(self, scheduler, step: Step,
                  cycle_limit: int) -> Optional[int]:
        """One scheduler step toward a run directive (None = advanced)."""
        slot = scheduler.slot_of(step.thread)
        if slot is None:
            self._advance(scheduler, step, "unknown-thread")
            return None
        if self._run_index != self._index:
            self._run_index = self._index
            self._baseline_commits = slot.thread.commits
            self._baseline_aborts = slot.thread.aborts
            self._steps_used = 0
        if self._satisfied(scheduler, slot, step):
            self._advance(scheduler, step, "completed")
            return None
        if slot.done:
            # Retirement satisfies "done"; for any other condition the
            # target can make no further progress toward it.
            outcome = "completed" if step.until == "done" else "target-done"
            self._advance(scheduler, step, outcome)
            return None
        if self._steps_used >= step.budget:
            self._advance(scheduler, step, "budget-exhausted")
            return None
        proc = scheduler.processor_of(step.thread)
        if proc is None:
            if not self._schedule_target(scheduler, step.thread):
                self._advance(scheduler, step, "unschedulable")
                return None
            proc = scheduler.processor_of(step.thread)
        if scheduler.machine.processors[proc].clock.now >= cycle_limit:
            self._advance(scheduler, step, "cycle-limit")
            return None
        self._steps_used += 1
        return proc

    def _satisfied(self, scheduler, slot, step: Step) -> bool:
        if step.until == "ops":
            return self._steps_used >= step.count
        if step.until == "begin":
            return bool(slot.thread.in_transaction)
        if step.until == "commit":
            return slot.thread.commits - self._baseline_commits >= step.count
        if step.until == "abort":
            return slot.thread.aborts - self._baseline_aborts >= step.count
        if step.until == "cycle":
            return scheduler.machine.max_cycle() >= step.count
        # until == "done" is handled by the slot.done check above.
        return False

    def _schedule_target(self, scheduler, thread_id: int) -> bool:
        """Make the run target runnable, evicting a bystander if needed."""
        if scheduler.place(thread_id):
            return True
        if scheduler.free_processors():
            return False  # free core but the thread is unplaceable (done)
        # Every core is busy: park the lowest-processor bystander that is
        # neither the target nor pinned, then retry (deterministic order).
        for _, victim in scheduler.running_threads():
            if victim == thread_id or victim in self._pinned:
                continue
            # Re-queue instead of leaving the bystander parked forever:
            # run directives should not strand threads a later
            # directive never mentions.
            if scheduler.park(victim, requeue=True):
                return scheduler.place(thread_id)
        return False
