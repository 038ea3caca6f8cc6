"""The deterministic escalation ladder: the *react* half of the loop.

Sensor readings (:mod:`repro.resilience.pressure`) and per-thread abort
streaks drive a rung-by-rung fallback that trades concurrency for
progress — exactly the policy flexibility FlexTM's decoupled hardware
exists to enable:

``HEALTHY``
    nothing special; the configured policy runs unmodified.
``BOOSTED``
    a thread's consecutive-abort streak crossed ``boost_after``: the
    contention manager's back-off window grows (bounded multiplicative
    boost), spacing duelling transactions apart.
``EAGER``
    the streak crossed ``eager_after``: the starving transaction's next
    attempt flips from lazy to eager conflict management (the paper's
    E/L descriptor bit), resolving conflicts at access time instead of
    repeatedly losing the commit race.
``IRREVOCABLE``
    the streak crossed ``irrevocable_after``: the thread requests the
    single :class:`~repro.resilience.irrevocable.IrrevocabilityToken`,
    drains in-flight peers via AOU-targeted aborts, and runs serially
    to a guaranteed commit.

Independently, *sustained* signature pressure (``sig_sustain``
consecutive hot samples) rotates the Bloom hash family: signatures
rebind to a fresh family at their next (clean) transaction begin, and
cross-family comparisons degrade to fully conservative answers
(``Signature._foreign``), so rotation can never produce a false
negative.

The controller is wired like the tracer/chaos layers: every hook site
guards on ``machine.resilience is None``, it draws no random numbers,
and a run without a controller is bit-identical to a build without this
package.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterator, Tuple

from repro.core.descriptor import ConflictMode
from repro.core.tsw import TxStatus
from repro.resilience.irrevocable import IrrevocabilityToken
from repro.resilience.pressure import record_samples, sample_machine
from repro.signatures.hashing import make_hash_family

#: Default seed of :func:`make_hash_family` (generation 0 must reuse it
#: so an installed-but-idle controller never changes a signature probe).
_BASE_FAMILY_SEED = 0xF1E7
#: Odd multiplier decorrelating per-generation family seeds.
_GENERATION_MIX = 0x9E3779B1


class Rung(enum.IntEnum):
    """Ladder position of one thread (ordered: comparisons are valid)."""

    HEALTHY = 0
    BOOSTED = 1
    EAGER = 2
    IRREVOCABLE = 3


@dataclasses.dataclass(frozen=True)
class DegradeSpec:
    """Escalation-ladder parameters (immutable, picklable).

    The default thresholds are pinned by
    tests/resilience/test_degrade_golden.py — tune them there, visibly.
    """

    #: Consecutive aborts before the contention back-off is boosted.
    boost_after: int = 2
    #: Consecutive aborts before a lazy transaction flips to eager.
    eager_after: int = 4
    #: Consecutive aborts before irrevocability is requested.
    irrevocable_after: int = 6
    #: Multiplicative back-off growth per boost (bounded by max_boost).
    boost_growth: int = 2
    #: Cap on the cumulative contention-manager boost.
    max_boost: int = 8
    #: Scheduler steps between pressure-sensor sweeps.
    sample_interval: int = 64
    #: Signature bit-fill fraction considered "hot".
    sig_fill_threshold: float = 0.55
    #: Estimated Bloom false-positive probability considered "hot".
    sig_fp_threshold: float = 0.30
    #: Consecutive hot sweeps before the hash family rotates.
    sig_sustain: int = 3
    #: Lifetime cap on hash-family rotations (bounded reconfiguration).
    max_rotations: int = 4
    #: Busy-wait granularity while polling for the token (cycles).
    token_poll_cycles: int = 40


def rung_for(spec: DegradeSpec, streak: int) -> Rung:
    """Pure streak -> rung mapping (golden-table locked)."""
    if streak >= spec.irrevocable_after:
        return Rung.IRREVOCABLE
    if streak >= spec.eager_after:
        return Rung.EAGER
    if streak >= spec.boost_after:
        return Rung.BOOSTED
    return Rung.HEALTHY


def should_rotate(spec: DegradeSpec, hot_streak: int, rotations: int) -> bool:
    """Pure rotation decision (golden-table locked)."""
    return hot_streak >= spec.sig_sustain and rotations < spec.max_rotations


def family_seed(generation: int) -> int:
    """Deterministic hash-family seed for one rotation generation."""
    if generation == 0:
        return _BASE_FAMILY_SEED
    return _BASE_FAMILY_SEED ^ (generation * _GENERATION_MIX)


class ResilienceController:
    """Closes the detect->react loop over one machine.

    Arm with ``FlexTMMachine.attach(resilience=...)``; every hook is a
    no-op path when no controller is installed.  The controller draws
    **no** random numbers — all decisions are functions of observed
    state — so armed runs are deterministic and golden-table testable.
    """

    def __init__(self, spec: DegradeSpec = DegradeSpec()):
        self.spec = spec
        self.machine = None
        #: The contention manager boosts apply to (see bind_manager).
        self.manager = None
        self.token = IrrevocabilityToken()
        #: True only between drain convergence and the holder's commit.
        self.serial_active = False
        self._holder_thread = None
        #: Hash-family rotation generation (monotonic).
        self.generation = 0
        self._rotations = 0
        self._hot_streak = 0
        self._proc_generation: Dict[int, int] = {}
        self._steps = 0
        #: thread id -> consecutive-abort streak / current rung.
        self._streaks: Dict[int, int] = {}
        self._rungs: Dict[int, Rung] = {}
        #: Threads currently inside an attempt (admission passed, not
        #: yet committed/aborted) — the drain-wait condition.
        self._in_flight: set = set()
        self._attempt_start: Dict[int, int] = {}
        self._escalation_start: Dict[int, int] = {}
        self._boosted: set = set()
        self._flipped: set = set()
        #: Commits grouped by the rung the committing thread was on.
        self.commits_by_rung: Dict[str, int] = {r.name.lower(): 0 for r in Rung}
        #: Worst consecutive-abort streak seen (starvation-freedom bound).
        self.peak_streak = 0
        #: Per-rung escalation counters surfaced on RunResult.
        self.counters: Dict[str, int] = {
            "boosts": 0,
            "policy_flips": 0,
            "sig_rotations": 0,
            "irrevocable_grants": 0,
            "irrevocable_drains": 0,
            "deflected_wounds": 0,
        }

    # -- wiring -----------------------------------------------------------------

    def attach(self, machine) -> None:
        self.machine = machine

    def bind_manager(self, manager) -> None:
        """Bind the contention manager boosts should reach (or None)."""
        self.manager = manager

    # -- scheduler hook: pressure sensing --------------------------------------

    def on_step(self, scheduler) -> None:
        """Called once per scheduler step; samples every Nth step."""
        self._steps += 1
        if self._steps % self.spec.sample_interval:
            return
        samples = sample_machine(self.machine)
        record_samples(self.machine.stats, samples)
        hot = any(
            s.hot(self.spec.sig_fill_threshold, self.spec.sig_fp_threshold)
            for s in samples
        )
        self._hot_streak = self._hot_streak + 1 if hot else 0
        if should_rotate(self.spec, self._hot_streak, self._rotations):
            self.generation += 1
            self._rotations += 1
            self._hot_streak = 0
            self.counters["sig_rotations"] += 1
            self.machine.stats.counter("resilience.sig_rotations").increment()
            if self.machine.tracer.enabled:
                self.machine.tracer.degrade(
                    self.machine.max_cycle(), "rotate", generation=self.generation
                )

    # -- processor hook: hash-family rotation ----------------------------------

    def maybe_rotate(self, proc) -> None:
        """Rebind a core's signatures to the current hash family.

        Called from ``begin_transaction`` right after the flash-clear —
        the only point the hardware could legally re-wire the hash
        network (no live bits depend on the old family).
        """
        if self._proc_generation.get(proc.proc_id, 0) == self.generation:
            return
        family = make_hash_family(
            proc.params.signature_bits,
            proc.params.signature_hashes,
            seed=family_seed(self.generation),
        )
        proc.rsig.rebind_family(family)
        proc.wsig.rebind_family(family)
        self._proc_generation[proc.proc_id] = self.generation

    # -- runtime hook: conflict-mode fallback ----------------------------------

    def mode_for(self, thread, default: ConflictMode) -> ConflictMode:
        """The conflict mode this attempt should run under."""
        rung = self._rungs.get(thread.thread_id, Rung.HEALTHY)
        if rung >= Rung.EAGER and default is ConflictMode.LAZY:
            if thread.thread_id not in self._flipped:
                self._flipped.add(thread.thread_id)
                self.counters["policy_flips"] += 1
                self.machine.stats.counter("resilience.policy_flips").increment()
                if self.machine.tracer.enabled:
                    self.machine.tracer.degrade(
                        self.machine.max_cycle(), "policy_flip",
                        thread=thread.thread_id,
                    )
            return ConflictMode.EAGER
        return default

    # -- thread hooks: admission and lifecycle ---------------------------------

    def admission(self, thread) -> Iterator[Tuple]:
        """Gate one attempt; generator driven by the scheduler.

        Threads on the IRREVOCABLE rung acquire the token (draining
        peers first); everyone else spins while the token is busy, so
        the serial holder faces no new contention.  On the healthy path
        this yields nothing and touches nothing.
        """
        tid = thread.thread_id
        rung = self._rungs.get(tid, Rung.HEALTHY)
        if rung is Rung.IRREVOCABLE and self.token.holder != tid:
            yield from self._acquire(thread)
        else:
            while self.token.busy and self.token.holder != tid:
                yield ("work", self.spec.token_poll_cycles)

    def _acquire(self, thread) -> Iterator[Tuple]:
        """FIFO-acquire the token, then drain every in-flight peer."""
        tid = thread.thread_id
        machine = self.machine
        self.token.enqueue(tid)
        while not self.token.try_grant(tid):
            yield ("work", self.spec.token_poll_cycles)
        self._holder_thread = thread
        self.counters["irrevocable_grants"] += 1
        machine.stats.counter("resilience.irrevocable_grants").increment()
        if machine.tracer.enabled:
            machine.tracer.degrade(
                machine.max_cycle(), "irrevocable_grant", thread=tid
            )
        while True:
            drained = 0
            for descriptor in list(machine._descriptors_by_tsw.values()):
                if descriptor.thread_id == tid:
                    continue
                if machine.read_status(descriptor) is not TxStatus.ACTIVE:
                    continue
                if machine.force_abort(descriptor, by=-1, kind="irrevocable"):
                    drained += 1
                    self.counters["irrevocable_drains"] += 1
                    machine.stats.counter("resilience.irrevocable_drains").increment()
                    if machine.tracer.enabled:
                        machine.tracer.degrade(
                            machine.max_cycle(), "irrevocable_drain",
                            thread=descriptor.thread_id,
                        )
            if not drained and not (self._in_flight - {tid}):
                break
            yield ("work", self.spec.token_poll_cycles)
        self.serial_active = True

    def on_attempt(self, thread, now: int) -> None:
        """An attempt passed admission and is about to begin."""
        tid = thread.thread_id
        self._in_flight.add(tid)
        self._attempt_start[tid] = now

    def on_commit(self, thread, now: int) -> None:
        tid = thread.thread_id
        rung = self._rungs.get(tid, Rung.HEALTHY)
        self.commits_by_rung[rung.name.lower()] += 1
        if rung > Rung.HEALTHY:
            start = self._escalation_start.pop(tid, now)
            self.machine.stats.histogram("resilience.recovery_cycles").record(
                max(0, now - start)
            )
            if self.machine.tracer.enabled:
                self.machine.tracer.degrade(
                    now, "recover", thread=tid, rung=rung.name.lower()
                )
        self._streaks[tid] = 0
        self._rungs[tid] = Rung.HEALTHY
        self._flipped.discard(tid)
        if tid in self._boosted:
            self._boosted.discard(tid)
            if not self._boosted and self.manager is not None:
                self.manager.reset_escalation()
        if self.token.holder == tid:
            self.serial_active = False
            self._holder_thread = None
            self.token.release(tid)
            if self.machine.tracer.enabled:
                self.machine.tracer.degrade(now, "irrevocable_release", thread=tid)
        self._in_flight.discard(tid)
        self._attempt_start.pop(tid, None)

    def on_abort(self, thread, now: int) -> None:
        tid = thread.thread_id
        self._in_flight.discard(tid)
        streak = self._streaks.get(tid, 0) + 1
        self._streaks[tid] = streak
        self.peak_streak = max(self.peak_streak, streak)
        start = self._attempt_start.pop(tid, None)
        if start is not None:
            self.machine.stats.histogram("resilience.wasted_cycles").record(
                max(0, now - start)
            )
        # Defensive: a holder abort (should not happen once serial —
        # wounds are deflected and peers are gated) must not wedge the
        # FIFO; release and let the ladder re-acquire.
        if self.token.holder == tid:
            self.serial_active = False
            self._holder_thread = None
            self.token.release(tid)
        old = self._rungs.get(tid, Rung.HEALTHY)
        new = rung_for(self.spec, streak)
        if new is old:
            return
        self._rungs[tid] = new
        if old is Rung.HEALTHY:
            self._escalation_start[tid] = now
        self.machine.stats.counter(
            f"resilience.rung.{new.name.lower()}"
        ).increment()
        if self.machine.tracer.enabled:
            self.machine.tracer.degrade(
                now, "escalate", thread=tid, rung=new.name.lower(), streak=streak
            )
        if new is Rung.BOOSTED:
            self._boosted.add(tid)
            self.counters["boosts"] += 1
            if self.manager is not None:
                self.manager.escalate(
                    growth=self.spec.boost_growth, max_boost=self.spec.max_boost
                )

    # -- machine hooks: wound deflection and quiescing -------------------------

    def deflects(self, tsw_address: int) -> bool:
        """Is this TSW protected from abort writes right now?"""
        if not self.serial_active or self._holder_thread is None:
            return False
        descriptor = self._holder_thread.descriptor
        return descriptor is not None and descriptor.tsw_address == tsw_address

    def note_deflected(self) -> None:
        self.counters["deflected_wounds"] += 1
        self.machine.stats.counter("resilience.deflected_wounds").increment()

    def quiesced(self, proc_id: int) -> bool:
        """Signatures quiesced (chaos corruption suppressed) here?"""
        return (
            self.serial_active
            and self._holder_thread is not None
            and self._holder_thread.processor == proc_id
        )

    # -- scheduler hook: holder pinning ----------------------------------------

    def pinned(self, thread) -> bool:
        """The serial holder is never preempted or migrated."""
        return thread is self._holder_thread

    # -- reporting --------------------------------------------------------------

    def token_holders(self):
        return self.token.holders()

    def escalation_counters(self) -> Dict[str, int]:
        """Flat counter dict merged into ``RunResult.escalations``."""
        out = dict(self.counters)
        out["peak_abort_streak"] = self.peak_streak
        for rung, commits in self.commits_by_rung.items():
            out[f"commits_{rung}"] = commits
        return out

    def rung_census(self) -> Dict[str, int]:
        """Threads currently on each rung (sampled by the metrics hub)."""
        census = {rung.name.lower(): 0 for rung in Rung}
        for rung in self._rungs.values():
            census[rung.name.lower()] += 1
        return census
