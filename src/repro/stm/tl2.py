"""TL-2 (Dice, Shalev, Shavit) — blocking word-based STM.

The paper's WS2 baseline.  Mechanics reproduced here:

* a global version clock;
* per-access orec lookup: reads sample the orec, read the data, then
  re-check the orec against the transaction's read version (abort on a
  newer or locked orec);
* redo-log writes;
* commit: lock the write set's orecs with bounded spinning, increment
  the global clock, validate the read set, write back, release with the
  new version.

The per-access bookkeeping (orec hashing, logging, and the bookkeeping
"required prior to the first read — checking write sets") is charged as
explicit work cycles in addition to the real metadata memory traffic;
together these reproduce TL-2's reported overhead profile (Section 7.3:
FlexTM is ~4x TL-2 at one thread on Vacation).
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.machine import FlexTMMachine
from repro.errors import TransactionAborted
from repro.runtime.api import TMBackend
from repro.sim.rng import DeterministicRng
from repro.stm.base import (
    LockTable,
    StmThreadState,
    encode_locked,
    encode_version,
    is_locked,
    version_of,
)

#: Software cost of hashing into the orec table + log append.
WRITE_BOOKKEEPING_CYCLES = 8
#: Software cost of the write-set Bloom check preceding every read.
READ_BOOKKEEPING_CYCLES = 6
#: Bounded spin attempts while a commit-time lock is held.
LOCK_SPIN_ATTEMPTS = 4


class Tl2Runtime(TMBackend):
    """TL-2 over the simulated machine."""

    name = "TL2"

    def __init__(self, machine: FlexTMMachine, num_orecs: int = 16384, rng: DeterministicRng = None):
        self.machine = machine
        self.rng = rng or DeterministicRng(0x712)
        self.orecs = LockTable(machine, num_orecs)
        self.clock_address = machine.allocate(machine.params.line_bytes, line_aligned=True)
        machine.memory.write(self.clock_address, encode_version(1))

    def thread_state(self) -> StmThreadState:
        return StmThreadState()

    def begin(self, thread) -> Iterator[Tuple]:
        state = thread.tm
        state.reset()
        clock = yield ("load", self.clock_address)
        state.read_version = version_of(clock.value)

    def read(self, thread, address: int) -> Iterator[Tuple]:
        state = thread.tm
        yield ("work", READ_BOOKKEEPING_CYCLES)
        if address in state.write_map:
            return state.write_map[address]
        orec_address = self.orecs.orec_address(address)
        pre = yield ("load", orec_address)
        data = yield ("load", address)
        post = yield ("load", orec_address)
        if (
            is_locked(post.value)
            or post.value != pre.value
            or version_of(post.value) > state.read_version
        ):
            raise TransactionAborted("TL2 read validation failed")
        state.read_set.append((orec_address, post.value))
        return data.value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        state = thread.tm
        yield ("work", WRITE_BOOKKEEPING_CYCLES)
        state.write_map[address] = value
        state.note_write_orec(self.orecs.orec_address(address))

    def commit(self, thread) -> Iterator[Tuple]:
        state = thread.tm
        if not state.write_map:
            return  # read-only fast path: reads already validated
        held = []
        try:
            yield from self._lock_write_set(thread, state, held)
            write_version = yield from self._advance_clock(thread)
            yield from self._validate_reads(state, held)
        except TransactionAborted:
            yield from self._release(held, encode=None)
            raise
        for address, value in state.write_map.items():
            yield ("store", address, value)
        yield from self._release(held, encode=encode_version(write_version))

    def _lock_write_set(self, thread, state: StmThreadState, held) -> Iterator[Tuple]:
        for orec_address in state.write_orecs:
            spins = 0
            while True:
                current = yield ("load", orec_address)
                word = current.value
                if not is_locked(word):
                    result = yield ("cas", orec_address, word, encode_locked(thread.thread_id))
                    if result.success:
                        held.append((orec_address, word))
                        break
                spins += 1
                if spins > LOCK_SPIN_ATTEMPTS:
                    raise TransactionAborted("TL2 lock acquisition failed")
                yield ("work", self.rng.randint(1, 16 << spins))

    def _advance_clock(self, thread) -> Iterator[Tuple]:
        while True:
            current = yield ("load", self.clock_address)
            new_version = version_of(current.value) + 1
            result = yield ("cas", self.clock_address, current.value, encode_version(new_version))
            if result.success:
                return new_version

    def _validate_reads(self, state: StmThreadState, held) -> Iterator[Tuple]:
        pre_lock_words = {address: word for address, word in held}
        for orec_address, observed in state.read_set:
            if orec_address in pre_lock_words:
                # We hold the lock; the version cannot move under us,
                # but it must not have moved between our read and our
                # acquisition (read-then-write upgrade hazard).
                if pre_lock_words[orec_address] != observed:
                    raise TransactionAborted("TL2 upgrade validation failed")
                continue
            current = yield ("load", orec_address)
            if current.value != observed:
                raise TransactionAborted("TL2 commit validation failed")

    def _release(self, held, encode) -> Iterator[Tuple]:
        for orec_address, old_word in held:
            yield ("store", orec_address, old_word if encode is None else encode)

    def on_abort(self, thread) -> Iterator[Tuple]:
        state = thread.tm
        state.reset()
        yield ("work", 10)

    def retry_backoff(self, aborts_in_a_row: int) -> int:
        window = min(aborts_in_a_row, 8)
        return self.rng.randint(1, (1 << window) * 16)
