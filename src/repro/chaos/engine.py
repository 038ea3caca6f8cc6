"""Deterministic fault injection (the robustness tentpole).

A :class:`ChaosEngine` is threaded through the coherence, core, and
runtime layers the same way the tracer is: every layer holds a ``chaos``
attribute (``None`` by default, so the hot path pays one attribute read)
and consults it at its injection site.  Faults are drawn from per-site
:class:`~repro.sim.rng.DeterministicRng` streams forked from the spec's
seed, so a failing run replays bit-identically from ``(seed, spec)``.

Fault sites and their graceful-degradation story:

==================  ========================================================
``coherence.drop``    a directory request message is lost; the protocol
                      NACKs and the requestor re-issues after a bounded
                      retry window (latency only, never lost state)
``coherence.delay``   a request is delayed in the interconnect
``coherence.dup``     a forwarded snoop is delivered twice (CST updates
                      are idempotent, so duplicates must be masked)
``aou.drop``          an alert-on-update delivery is lost (the runtime's
                      TSW status poll still detects the abort, later)
``aou.spurious``      a spurious alert fires with no marked-line cause
``signature.false_positive``  a signature check reports a hit that is not
                      there (conservative: extra conflicts, never unsafe)
``signature.false_negative``  a signature check misses a real hit (unsafe:
                      the serializability oracle must diagnose the damage)
``overflow.walk_fail``  an OT walk FSM pass fails and is retried (latency)
``l1.evict``          cache pressure: a random other line is evicted
``sched.preempt``     adversarial context-switch storm (forced preempt)
==================  ========================================================

Probabilities of zero draw nothing from the stream, so an engine whose
spec is all-zero behaves bit-identically to no engine at all — the
property the chaos-off determinism tests lock.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, List, Tuple

from repro.sim.rng import DeterministicRng

#: Protocol-level NACK + re-issue latency charged per dropped message.
CHAOS_RETRY_CYCLES = 40

#: Stable integer stream ids per fault site.  Integers, not names:
#: ``DeterministicRng.fork`` hashes ``(seed, stream)`` and string hashes
#: are salted per-process, which would break cross-process replay.
_SITE_STREAMS = {
    "coherence": 11,
    "aou": 12,
    "signature": 13,
    "overflow": 14,
    "l1": 15,
    "sched": 16,
}


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """One replayable fault schedule: a seed plus per-site probabilities.

    All probabilities default to zero; a default spec injects nothing.
    The spec is immutable and picklable so it can ride inside an
    :class:`~repro.harness.runner.ExperimentConfig` across process
    boundaries.
    """

    seed: int = 0
    #: Coherence-message faults (directory request path).
    coh_drop: float = 0.0
    coh_delay: float = 0.0
    coh_delay_cycles: int = 48
    coh_dup: float = 0.0
    #: Bound on back-to-back drops of one request, so a run can never
    #: wedge inside the retry loop.
    max_consecutive_drops: int = 3
    #: Alert-on-update faults.
    alert_drop: float = 0.0
    alert_spurious: float = 0.0
    #: Signature bit corruption (forced false positives / negatives).
    sig_false_positive: float = 0.0
    sig_false_negative: float = 0.0
    #: Overflow-table walk failures (retried; latency only).
    ot_walk_fail: float = 0.0
    #: Forced L1 evictions (cache-pressure adversary).
    l1_evict: float = 0.0
    #: Forced preemptions per scheduler step (context-switch storm).
    sched_preempt: float = 0.0

    @property
    def any_faults(self) -> bool:
        return any(
            prob > 0.0
            for prob in (
                self.coh_drop, self.coh_delay, self.coh_dup,
                self.alert_drop, self.alert_spurious,
                self.sig_false_positive, self.sig_false_negative,
                self.ot_walk_fail, self.l1_evict, self.sched_preempt,
            )
        )


class ChaosEngine:
    """Draws faults from per-site deterministic streams and logs them.

    ``enabled`` mirrors the tracer contract; call sites guard with
    ``chaos is not None and chaos.enabled``.  Every injected fault is
    appended to :attr:`log` as ``(site, kind, detail)`` — two engines
    built from equal specs must produce equal logs for equal runs, which
    is what the determinism tests compare.
    """

    enabled = True

    def __init__(self, spec: ChaosSpec):
        self.spec = spec
        root = DeterministicRng(spec.seed)
        self._rng: Dict[str, DeterministicRng] = {
            site: root.fork(stream) for site, stream in _SITE_STREAMS.items()
        }
        #: ``site.kind`` -> injection count.
        self.injected: collections.Counter = collections.Counter()
        #: Ordered injection record for bit-identical replay comparison.
        self.log: List[Tuple[str, str, int]] = []
        #: StatsRegistry mirror (the machine's, installed by
        #: FlexTMMachine.attach; None for an engine driven alone).
        self.stats = None

    def _roll(self, site: str, prob: float) -> bool:
        """One Bernoulli draw; zero probability consumes no stream state."""
        return prob > 0.0 and self._rng[site].random() < prob

    def _note(self, site: str, kind: str, detail: int = -1) -> None:
        self.injected[f"{site}.{kind}"] += 1
        self.log.append((site, kind, detail))
        if self.stats is not None:
            self.stats.counter(f"chaos.{site}.{kind}").increment()

    # -- coherence (directory request path) -----------------------------------

    def coherence_extra_cycles(self, line_address: int) -> int:
        """Drop/delay faults for one directory request; returns latency.

        Drops degrade into bounded NACK/retry latency: the request is
        re-issued after :data:`CHAOS_RETRY_CYCLES` and the consecutive-
        drop bound guarantees it eventually goes through.
        """
        spec = self.spec
        extra = 0
        drops = 0
        while drops < spec.max_consecutive_drops and self._roll("coherence", spec.coh_drop):
            drops += 1
            extra += CHAOS_RETRY_CYCLES
            self._note("coherence", "drop", line_address)
        if self._roll("coherence", spec.coh_delay):
            extra += spec.coh_delay_cycles
            self._note("coherence", "delay", line_address)
        return extra

    def duplicate_response(self, line_address: int) -> bool:
        """Should one forwarded snoop be delivered a second time?"""
        if self._roll("coherence", self.spec.coh_dup):
            self._note("coherence", "dup", line_address)
            return True
        return False

    # -- alert-on-update --------------------------------------------------------

    def alert_lost(self, line_address: int) -> bool:
        if self._roll("aou", self.spec.alert_drop):
            self._note("aou", "drop", line_address)
            return True
        return False

    def spurious_alert(self) -> bool:
        if self._roll("aou", self.spec.alert_spurious):
            self._note("aou", "spurious")
            return True
        return False

    # -- signatures -------------------------------------------------------------

    def sig_member(self, which: str, line_address: int, actual: bool) -> bool:
        """Corrupt one signature membership test (bit-flip model)."""
        if actual:
            if self._roll("signature", self.spec.sig_false_negative):
                self._note("signature", f"false_negative.{which}", line_address)
                return False
        else:
            if self._roll("signature", self.spec.sig_false_positive):
                self._note("signature", f"false_positive.{which}", line_address)
                return True
        return actual

    # -- overflow table ---------------------------------------------------------

    def ot_walk_failed(self, line_address: int) -> bool:
        if self._roll("overflow", self.spec.ot_walk_fail):
            self._note("overflow", "walk_fail", line_address)
            return True
        return False

    # -- L1 pressure ------------------------------------------------------------

    def l1_pressure(self) -> bool:
        if self._roll("l1", self.spec.l1_evict):
            self._note("l1", "evict")
            return True
        return False

    def pick(self, n: int) -> int:
        """Deterministic index choice for the L1 pressure victim."""
        return self._rng["l1"].randint(0, n - 1)

    # -- scheduler --------------------------------------------------------------

    def forced_preempt(self) -> bool:
        if self._roll("sched", self.spec.sched_preempt):
            self._note("sched", "preempt")
            return True
        return False

    # -- inspection -------------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def __repr__(self) -> str:
        return f"ChaosEngine(seed={self.spec.seed}, injected={self.total_injected})"
