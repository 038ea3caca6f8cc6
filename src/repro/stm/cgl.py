"""Coarse-grain locking (CGL) — the paper's normalization baseline.

Every "transaction" acquires a single global test-and-test-and-set
lock, runs its accesses as plain loads and stores, and releases.  The
single-thread CGL run is what Figures 4 and 5 normalize against; with
more threads CGL serializes completely (its curves are flat), but it
carries no per-access overhead at all, which is why the STMs fall below
it at one thread.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.machine import FlexTMMachine
from repro.runtime.api import TMBackend
from repro.sim.rng import DeterministicRng

#: Free / held values of the global lock word.
LOCK_FREE = 0
LOCK_HELD = 1


class CglRuntime(TMBackend):
    """Single global lock; no speculation, no aborts."""

    name = "CGL"

    def __init__(self, machine: FlexTMMachine, rng: DeterministicRng = None):
        self.machine = machine
        self.rng = rng or DeterministicRng(0xCA7)
        self.lock_address = machine.allocate(machine.params.line_bytes, line_aligned=True)
        machine.memory.write(self.lock_address, LOCK_FREE)

    def begin(self, thread) -> Iterator[Tuple]:
        backoff = 4
        while True:
            # Test-and-test-and-set: spin on a (cache-local) read first.
            observed = yield ("load", self.lock_address)
            if observed.value == LOCK_FREE:
                result = yield ("cas", self.lock_address, LOCK_FREE, LOCK_HELD)
                if result.success:
                    return
            yield ("work", self.rng.randint(1, backoff))
            backoff = min(backoff * 2, 1024)

    def read(self, thread, address: int) -> Iterator[Tuple]:
        result = yield ("load", address)
        return result.value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        yield ("store", address, value)

    def commit(self, thread) -> Iterator[Tuple]:
        yield ("store", self.lock_address, LOCK_FREE)

    def on_abort(self, thread) -> Iterator[Tuple]:
        # CGL cannot abort; present only to satisfy the interface.
        return
        yield  # pragma: no cover
