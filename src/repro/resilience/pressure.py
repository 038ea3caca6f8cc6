"""Pressure sensors: the *detect* half of the detect->react loop.

Samples the decoupled hardware structures the controller can actually
relieve: Bloom-signature fill (a proxy for false-positive wounds —
rotate/widen the hash family), overflow-table occupancy and failed
walks (OT thrash — back off harder), and, via the controller's
bookkeeping, per-transaction consecutive-abort streaks and wasted
cycles (starvation — escalate toward irrevocability).

Sampling is purely observational: no RNG draws, no clock writes, no
cache traffic.  Readings land in ``resilience.*`` StatsRegistry
histograms (percent-scaled integers) so every run's pressure history is
inspectable post-hoc from ``RunResult.stats``.
"""

from __future__ import annotations

import dataclasses
from typing import List


@dataclasses.dataclass(frozen=True)
class PressureSample:
    """One processor's sensor readings at one sample point."""

    proc: int
    #: Worst per-register bit-fill fraction (Rsig vs Wsig), 0..1.
    sig_fill: float
    #: Worst estimated Bloom false-positive probability, 0..1.
    sig_fp: float
    #: Overflow-table entries currently held (0 when no OT allocated).
    ot_occupancy: int
    #: Failed OT walks so far (chaos-injected or geometry-induced).
    ot_failed_walks: int

    def hot(self, fill_threshold: float, fp_threshold: float) -> bool:
        """Is this core under sustained signature pressure?"""
        return self.sig_fill >= fill_threshold or self.sig_fp >= fp_threshold


def sample_machine(machine) -> List[PressureSample]:
    """Read every processor's sensors (observational only).

    The worse of the Rsig and Wsig readings counts.  An empty register
    reads 0.0 fill and a 0.0 false-positive estimate (every bank is
    empty), so only a non-empty one is read.
    """
    samples = []
    for proc in machine.processors:
        fill = fp = 0.0
        for sig in (proc.rsig, proc.wsig):
            if sig.word:
                fill = max(fill, sig.occupancy())
                fp = max(fp, sig.false_positive_estimate())
        samples.append(
            PressureSample(
                proc=proc.proc_id,
                sig_fill=fill,
                sig_fp=fp,
                ot_occupancy=proc.ot.count if proc.ot.active else 0,
                ot_failed_walks=proc.ot.failed_walks,
            )
        )
    return samples


def record_samples(stats, samples: List[PressureSample]) -> None:
    """Log one sweep of readings into ``resilience.*`` histograms."""
    fill = stats.histogram("resilience.sig_fill_pct")
    fp = stats.histogram("resilience.sig_fp_pct")
    occupancy = stats.histogram("resilience.ot_occupancy")
    for sample in samples:
        fill.record(int(sample.sig_fill * 100))
        fp.record(int(sample.sig_fp * 100))
        occupancy.record(sample.ot_occupancy)
