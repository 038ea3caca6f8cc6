"""RSTM — non-blocking object-based STM, invisible readers (WS1 baseline).

Configured as in the paper (Section 7.2): invisible readers with
self-validation.  Our model treats one cache line as one object.  The
cost structure reproduces RSTM's published profile:

* **metadata indirection** — every open reads a shared header word
  (real coherence traffic; the source of the ~2x cache-miss inflation
  the paper reports for Delaunay);
* **copying** — the first write to an object clones it into a private
  buffer (simulated loads/stores on real addresses plus fixed work);
* **incremental validation** — invisible readers re-validate their
  entire read set on every new open, the O(reads^2) term that consumes
  up to 80% of RandomGraph's execution time;
* **eager ownership** — writers acquire headers at first write and may
  abort enemies through their status words (non-blocking), arbitrated
  by the same Polka manager as every other system.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.machine import FlexTMMachine, WORD_BYTES
from repro.core.tsw import TxStatus
from repro.errors import TransactionAborted
from repro.runtime.api import TMBackend
from repro.runtime.contention import ConflictManager, Decision, PolkaManager
from repro.sim.rng import DeterministicRng
from repro.stm.base import LockTable, StmThreadState, encode_locked, encode_version, is_locked, version_of

#: Per-open fixed bookkeeping (descriptor checks, set insertion).
READ_BOOKKEEPING_CYCLES = 14
WRITE_BOOKKEEPING_CYCLES = 16
#: Incremental validation: cycles per previously opened object,
#: re-checked on every new open (headers are usually cached).
VALIDATE_PER_ENTRY_CYCLES = 2
#: Clone cost beyond the simulated copy traffic.
CLONE_FIXED_CYCLES = 20
#: Words of copy traffic simulated per clone (object = one line).
CLONE_COPY_WORDS = 3


@dataclasses.dataclass
class RstmThreadState(StmThreadState):
    """The STM record plus RSTM's status word and header ownership."""

    #: The thread's status word, allocated at its first begin.
    status_address: int = 0
    #: (header_address, pre-lock word) for headers this attempt owns.
    owned: List[Tuple[int, int]] = dataclasses.field(default_factory=list)
    #: A header CAS in flight, booked before it is issued.
    pending: Optional[Tuple[int, int]] = None

    def reset(self) -> None:
        super().reset()
        self.owned = []
        self.pending = None


class RstmRuntime(TMBackend):
    """The RSTM model."""

    name = "RSTM"

    def __init__(
        self,
        machine: FlexTMMachine,
        num_orecs: int = 1024,
        manager: ConflictManager = None,
        rng: DeterministicRng = None,
    ):
        self.machine = machine
        self.rng = rng or DeterministicRng(0x757)
        self.manager = manager or PolkaManager()
        self.headers = LockTable(machine, num_orecs)
        self._clone_area = machine.allocate_words(CLONE_COPY_WORDS * 64, line_aligned=True)
        #: thread id -> record: a header owner's status word and karma.
        self._threads: Dict[int, RstmThreadState] = {}

    def thread_state(self) -> RstmThreadState:
        return RstmThreadState()

    # --------------------------------------------------------------- lifecycle

    def begin(self, thread) -> Iterator[Tuple]:
        state = thread.tm
        state.reset()
        if state.status_address == 0:
            state.status_address = self.machine.allocate(
                self.machine.params.line_bytes, line_aligned=True
            )
            self._threads[thread.thread_id] = state
        yield ("store", state.status_address, TxStatus.ACTIVE)

    def read(self, thread, address: int) -> Iterator[Tuple]:
        state = thread.tm
        yield ("work", READ_BOOKKEEPING_CYCLES)
        if address in state.write_map:
            return state.write_map[address]
        header_address = self.headers.orec_address(address)
        word = yield from self._open(thread, header_address)
        data = yield ("load", address)
        # Invisible readers: self-validate on every open so no zombie
        # ever returns data from a torn snapshot (opacity).  The checks
        # peek the header words directly — no yield boundary separates
        # them from the data load above, so the view they certify is
        # the view the transaction actually returns.  First the object
        # just read: its header must not have moved between the open
        # and the data load.
        if self.machine.memory.read(header_address) != word:
            raise TransactionAborted("RSTM open validation failed")
        # Then every earlier entry (the O(R^2) term); its cycle cost is
        # charged below (headers are usually cached).
        owned = {owned_address for owned_address, _ in state.owned}
        for seen_header, observed in state.read_set:
            if seen_header in owned:
                continue
            if self.machine.memory.read(seen_header) != observed:
                raise TransactionAborted("RSTM incremental validation failed")
        state.read_set.append((header_address, word))
        if len(state.read_set) > 1:
            yield ("work", VALIDATE_PER_ENTRY_CYCLES * (len(state.read_set) - 1))
        return data.value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        state = thread.tm
        yield ("work", WRITE_BOOKKEEPING_CYCLES)
        header_address = self.headers.orec_address(address)
        if state.note_write_orec(header_address):
            acquired_word = yield from self._acquire(thread, header_address)
            # Upgrade hazard: if we read this object earlier, the
            # version we saw must still be current at acquire time —
            # otherwise another writer committed in between and our
            # earlier read is stale.
            for seen_header, observed in state.read_set:
                if seen_header == header_address and observed != acquired_word:
                    raise TransactionAborted("RSTM upgrade validation failed")
            yield from self._clone(address)
        state.write_map[address] = value

    def commit(self, thread) -> Iterator[Tuple]:
        state = thread.tm
        owned = {address for address, _ in state.owned}
        for header_address, observed in state.read_set:
            if header_address in owned:
                continue
            current = yield ("load", header_address)
            if current.value != observed:
                raise TransactionAborted("RSTM commit validation failed")
        result = yield ("cas", state.status_address, TxStatus.ACTIVE, TxStatus.COMMITTED)
        if not result.success:
            raise TransactionAborted("RSTM lost commit CAS")
        for address, value in state.write_map.items():
            yield ("store", address, value)
        for header_address, old_word in state.owned:
            yield ("store", header_address, encode_version(version_of(old_word) + 1))
        state.owned = []

    def on_abort(self, thread) -> Iterator[Tuple]:
        state = thread.tm
        if state.pending is not None:
            header_address, old_word = state.pending
            current = yield ("load", header_address)
            if current.value == encode_locked(thread.thread_id):
                yield ("store", header_address, old_word)
        for header_address, old_word in state.owned:
            yield ("store", header_address, old_word)
        state.reset()
        yield ("work", 10)

    def check_aborted(self, thread) -> bool:
        status_address = thread.tm.status_address
        if not thread.in_transaction or status_address == 0:
            return False
        return self.machine.memory.read(status_address) == TxStatus.ABORTED

    def retry_backoff(self, aborts_in_a_row: int) -> int:
        return self.manager.retry_backoff(aborts_in_a_row)

    # ----------------------------------------------------------------- helpers

    def _open(self, thread, header_address: int) -> Iterator[Tuple]:
        """Read a header, resolving writer conflicts via the manager.

        Readers cannot proceed while a header is locked: they spin per
        the manager's rulings and, after wounding the owner, wait for
        its cleanup to restore the header — the convoying cost the
        paper attributes to STMs on legacy hardware.
        """
        word = yield from self._wait_unlocked(thread, header_address, role="reader")
        return word

    def _acquire(self, thread, header_address: int) -> Iterator[Tuple]:
        """Eagerly take ownership of an object's header.

        Returns the pre-lock header word so the caller can validate
        earlier reads of the same object.
        """
        state = thread.tm
        while True:
            word = yield from self._wait_unlocked(thread, header_address, role="writer")
            # A wound can be delivered at any yield boundary — including
            # right after this CAS lands.  Record the acquisition intent
            # *before* issuing it so on_abort can release a header whose
            # ownership we won but never got to book.
            state.pending = (header_address, word)
            result = yield ("cas", header_address, word, encode_locked(thread.thread_id))
            state.pending = None
            if result.success:
                state.owned.append((header_address, word))
                return word

    def _wait_unlocked(self, thread, header_address: int, role: str) -> Iterator[Tuple]:
        """Spin until a header is free (or ours); returns its word."""
        state = thread.tm
        attempt = 0
        while True:
            current = yield ("load", header_address)
            word = current.value
            if not is_locked(word) or (word >> 1) == thread.thread_id:
                return word
            owner = word >> 1
            my_karma = len(state.read_set) + len(state.write_map)
            enemy_state = self._threads.get(owner)
            enemy_karma = (
                len(enemy_state.read_set) + len(enemy_state.write_map)
                if enemy_state is not None
                else 8
            )
            ruling = self.manager.decide(attempt, my_karma, enemy_karma)
            attempt += 1
            if ruling.decision is Decision.WAIT:
                yield ("work", max(1, ruling.backoff_cycles))
                continue
            if ruling.decision is Decision.ABORT_SELF:
                raise TransactionAborted(f"RSTM {role} self-abort", by=owner)
            yield from self._abort_owner(enemy_state)
            # Wounded owner releases the header in its on_abort; give it
            # a beat and re-examine.
            yield ("work", 16)

    def _abort_owner(self, owner: Optional[RstmThreadState]) -> Iterator[Tuple]:
        """Non-blocking enemy abort through its status word."""
        if owner is not None:
            yield ("cas", owner.status_address, TxStatus.ACTIVE, TxStatus.ABORTED)
        else:
            yield ("work", 4)

    def _clone(self, address: int) -> Iterator[Tuple]:
        """Copy-on-write: pull the object and write a private clone."""
        yield ("work", CLONE_FIXED_CYCLES)
        base = address & ~(self.machine.params.line_bytes - 1)
        for word in range(CLONE_COPY_WORDS):
            source = yield ("load", base + word * WORD_BYTES)
            yield ("store", self._clone_area + word * WORD_BYTES, source.value)
