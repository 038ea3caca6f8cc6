"""Livelock detection and escalation (the liveness half of robustness).

The paper's Polka manager resolves most conflicts, but hostile
schedules (RandomGraph eager mode, chaos-injected signature false
positives) can leave transactions wounding each other with no global
progress.  The :class:`LivelockWatchdog` observes commit progress from
the scheduler loop and escalates through a bounded ladder when a
no-commit window is exceeded:

1..``force_abort_after`` — grow the contention manager's back-off
   (bounded multiplicative boost through
   :meth:`~repro.runtime.contention.ConflictManager.escalate`), spacing
   the duellists out;
``force_abort_after``+1.. — forced-abort of the *oldest wounder*: the
   ACTIVE transaction that has inflicted the most wounds (ties to the
   lowest thread id), CASed to ABORTED through the machine so the
   normal AOU/flash-abort path unwinds it.

Each escalation widens the next no-progress window, so the ladder is
itself bounded.  Any commit de-escalates: the boost resets and the
ladder restarts from level zero.  Every action emits a structured
``watchdog_*`` event through the tracer and counts in the stats
registry, so escalations are attributable post-run.
"""

from __future__ import annotations

import dataclasses

from repro.core.tsw import TxStatus


@dataclasses.dataclass(frozen=True)
class WatchdogSpec:
    """Escalation-ladder parameters (immutable, picklable)."""

    #: Cycles without a commit before the first escalation.
    window_cycles: int = 50_000
    #: Multiplicative back-off boost applied per manager escalation.
    backoff_growth: int = 2
    #: Cap on the cumulative boost (bounded growth).
    max_boost: int = 8
    #: Manager escalations tried before forced aborts begin.
    force_abort_after: int = 2


class LivelockWatchdog:
    """Observes scheduler progress; escalates on no-commit windows."""

    def __init__(self, spec: WatchdogSpec = WatchdogSpec()):
        self.spec = spec
        self.machine = None
        self.manager = None
        #: Telemetry.
        self.escalations = 0
        self.forced_aborts = 0
        self.recoveries = 0
        self._level = 0
        self._last_commits = -1
        self._window_start = 0

    def attach(self, machine, backend) -> None:
        """Bind to a machine and (when the backend has one) its manager."""
        self.machine = machine
        self.manager = backend.manager

    # -- scheduler hook ---------------------------------------------------------

    def observe(self, scheduler) -> None:
        """Called once per scheduler step (only when a watchdog is wired)."""
        machine = scheduler.machine
        commits = sum(slot.thread.commits for slot in scheduler.slots)
        now = machine.max_cycle()
        if commits != self._last_commits:
            if self._level > 0:
                self.recoveries += 1
                self._deescalate(machine, now)
            self._last_commits = commits
            self._window_start = now
            return
        # Each level widens the window, bounding the ladder's rate.
        window = self.spec.window_cycles * (self._level + 1)
        if now - self._window_start < window:
            return
        self._window_start = now
        self._level += 1
        self.escalations += 1
        machine.stats.counter("watchdog.escalations").increment()
        if machine.tracer.enabled:
            machine.tracer.watchdog(now, "escalate", level=self._level)
        if self._level <= self.spec.force_abort_after and self.manager is not None:
            boost = self.manager.escalate(
                growth=self.spec.backoff_growth, max_boost=self.spec.max_boost
            )
            machine.stats.counter("watchdog.backoff_boosts").increment()
            if machine.tracer.enabled:
                machine.tracer.watchdog(now, "backoff_boost", boost=boost)
        else:
            self._force_abort_oldest_wounder(machine, now)

    # -- actions ---------------------------------------------------------------

    def _deescalate(self, machine, now: int) -> None:
        self._level = 0
        if self.manager is not None:
            self.manager.reset_escalation()
        machine.stats.counter("watchdog.recoveries").increment()
        if machine.tracer.enabled:
            machine.tracer.watchdog(now, "recover")

    def _force_abort_oldest_wounder(self, machine, now: int) -> None:
        """Wound the ACTIVE transaction that has wounded the most.

        The serial-irrevocable token holder is never a candidate: its
        TSW deflects abort CASes anyway (forward-progress guarantee),
        so selecting it would burn the escalation on a victim that
        cannot die — and keep re-selecting it while real wounders run
        free.  Deflected descriptors are filtered out up front.
        """
        resilience = machine.resilience
        victims = [
            descriptor
            for descriptor in machine._descriptors_by_tsw.values()
            if machine.read_status(descriptor) is TxStatus.ACTIVE
            and not (
                resilience is not None
                and resilience.deflects(descriptor.tsw_address)
            )
        ]
        if not victims:
            return
        victim = max(
            victims, key=lambda d: (d.wounds_inflicted, -d.thread_id)
        )
        if machine.force_abort(victim, by=-1, kind="watchdog"):
            self.forced_aborts += 1
            machine.stats.counter("watchdog.forced_aborts").increment()
            if machine.tracer.enabled:
                machine.tracer.watchdog(
                    now, "forced_abort",
                    thread=victim.thread_id,
                    wounds=victim.wounds_inflicted,
                )
