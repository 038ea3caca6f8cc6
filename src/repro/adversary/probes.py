"""Opacity and zombie probes: shadow-state oracles for conformance runs.

Opacity (Guerraoui & Kapalka) demands that *every* transaction — even
one that later aborts — observes a consistent snapshot of committed
state.  A "zombie" is a doomed transaction still running on stale data;
zombies are legal under weaker criteria (TL2-style invisible readers
abort them at validation) but a zombie that *observes an inconsistent
snapshot* and keeps executing is an opacity violation the simulator
must never produce.

The :class:`OpacityProbe` verifies this from outside the system under
test.  It is a :class:`~repro.verify.history.HistoryRecorder`, so one
probe carries both oracles: the recorder's per-attempt shadow (the
first value each attempt reads per address it has not written, taken
at the universal read chokepoint :meth:`TxContext.read`) feeds the
serializability checker and the snapshot check alike.  The probe adds
a shadow version history per cell seeded through
:meth:`~repro.verify.history.HistoryRecorder.note_initial`, appended at
the exact committed-mutation chokepoints of the machine (``store``/
``cas`` memory writes and the ``cas_commit`` overlay flash).  When an
attempt ends — commit *or* abort — the probe checks snapshot
consistency: some single version of the shadow history must explain
every first-read of a seeded cell.  Read-own-writes are excluded (they
never touch committed state), and unseeded addresses are ignored.

The probe follows the None-hook convention (``machine.probes`` defaults
to ``None``; every access site is guarded), observes only, and mutates
nothing — an armed run is bit-identical to an unarmed one, a property
the tests lock across all six backends.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.verify.history import HistoryRecorder


@dataclasses.dataclass(frozen=True)
class OpacityViolation:
    """One transaction attempt that saw an inconsistent snapshot."""

    thread: int
    #: "commit" or "abort" — aborted zombies violate opacity too.
    outcome: str
    #: The attempt's first-reads, address -> value seen.
    reads: Tuple[Tuple[int, int], ...]
    detail: str


class OpacityProbe(HistoryRecorder):
    """Observes transactional reads against the committed history."""

    def __init__(self) -> None:
        super().__init__()
        #: address -> [(version, value), ...] committed history of every
        #: cell :meth:`note_initial` seeded; version numbers are global
        #: (one counter across all tracked cells).
        self._history: Dict[int, List[Tuple[int, int]]] = {}
        self._version = 0
        #: Telemetry.
        self.reads_checked = 0
        self.snapshots_checked = 0
        self.zombie_attempts = 0
        self.stale_reads = 0
        self.violations: List[OpacityViolation] = []

    def note_initial(self, address: int, value: int) -> None:
        """Seed one shadow cell (pre-run, matching its memory value)."""
        super().note_initial(address, value)
        self._history.setdefault(address, [])

    # -- machine-level hooks (exact commit points) ---------------------------

    def on_memory_write(self, address: int, value: int) -> None:
        """A committed write landed (machine.store / successful CAS)."""
        history = self._history.get(address)
        if history is None:
            return
        self._version += 1
        history.append((self._version, value))

    def on_commit_flash(self, overlay) -> None:
        """A cas_commit flashed a write overlay into committed state.

        The whole overlay is one atomic version: all of a transaction's
        writes become visible at a single point in the shadow history.
        """
        items = sorted(
            (address, value)
            for address, value in dict(overlay).items()
            if address in self._history
        )
        if not items:
            return
        self._version += 1
        for address, value in items:
            self._history[address].append((self._version, value))

    # -- runtime-level hooks (attempt lifecycle) -----------------------------

    def on_read(self, thread: int, address: int, value) -> None:
        attempt = self._attempts.get(thread)
        if (
            attempt is not None
            and address in self._history
            and address not in attempt[0]
            and address not in attempt[1]
        ):
            self.reads_checked += 1
        super().on_read(thread, address, value)

    def on_commit(self, thread: int) -> None:
        self._check(thread, "commit")
        super().on_commit(thread)

    def on_abort(self, thread: int) -> None:
        self._check(thread, "abort")
        super().on_abort(thread)

    # -- the oracle ----------------------------------------------------------

    def _value_at(self, address: int, version: int) -> int:
        """Committed value of a cell as of a global version number."""
        value = self.initial_values[address]
        for entry_version, entry_value in self._history[address]:
            if entry_version > version:
                break
            value = entry_value
        return value

    def _check(self, thread: int, outcome: str) -> None:
        """Snapshot-check the ending attempt's first reads of tracked cells."""
        attempt = self._attempts.get(thread)
        if attempt is None:
            return
        first_reads = {
            address: value
            for address, value in attempt[0].items()
            if address in self._history
        }
        if not first_reads:
            return
        self.snapshots_checked += 1
        if outcome == "abort":
            self.zombie_attempts += 1
        # Candidate snapshot points: initial state plus every committed
        # version of any read cell.  The attempt is consistent iff some
        # single point explains every first-read.
        candidates = {0}
        for address in first_reads:
            for entry_version, _ in self._history[address]:
                candidates.add(entry_version)
        for version in sorted(candidates, reverse=True):
            if all(
                self._value_at(address, version) == value
                for address, value in first_reads.items()
            ):
                return
        self.stale_reads += 1
        reads = tuple(sorted(first_reads.items()))
        self.violations.append(
            OpacityViolation(
                thread=thread,
                outcome=outcome,
                reads=reads,
                detail=(
                    f"thread {thread} ({outcome}) read "
                    + ", ".join(f"[{a}]={v}" for a, v in reads)
                    + " — no single committed version explains this snapshot"
                ),
            )
        )

    def summary(self) -> Dict[str, int]:
        return {
            "reads_checked": self.reads_checked,
            "snapshots_checked": self.snapshots_checked,
            "zombie_attempts": self.zombie_attempts,
            "stale_reads": self.stale_reads,
            "violations": len(self.violations),
        }
