"""HTM-BE — a best-effort hardware TM with a hybrid software fallback.

The straw man FlexTM's unbounded, decoupled TM is measured against:
commercially-shipped best-effort HTM (Intel TSX, POWER8 TM, the FORTH
limited-read/write-set design in PAPERS.md).  The hardware path is
cheap but guarantees nothing:

* **capacity** — the read and write sets live in bounded hardware
  structures (``params.htm_read_lines`` / ``params.htm_write_lines``
  cache lines); touching one line too many aborts the attempt with
  kind ``"capacity"``;
* **htm-conflict** — conflict detection is eager and merciless: any
  remote access that clashes with another in-flight attempt aborts the
  *requesting* attempt (the attacker self-aborts, which is how real
  best-effort HTM behaves when a coherence request hits a
  transactional line — the simpler resolution, and it keeps all
  in-flight attempts pairwise conflict-free, so serializability and
  opacity hold by construction);
* **explicit** — a context switch or migration destroys the hardware
  state, so suspending a hardware attempt cancels it.

Because the hardware can always say no, every transaction carries a
software escape hatch driven by
:class:`repro.resilience.fallback.FallbackPolicy`: bounded HTM retries
with deterministic exponential backoff, then an unbounded software
slow path (same conflict rule, per-access bookkeeping cost), then the
FIFO irrevocability token as the last resort.  Acquiring the token
drains in-flight peers with kind ``"fallback"`` and the holder runs
serially — the HTM/SW mutual-exclusion invariant (``htm-sw-mutex``)
checked by :class:`repro.chaos.invariants.InvariantChecker`.

Writes are redo-logged and applied at commit; during write-back the
committer stays registered (``committing``) so a concurrent attempt
touching its lines still self-aborts rather than observing a torn
write-back.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.machine import FlexTMMachine
from repro.errors import TransactionAborted
from repro.resilience.fallback import (
    HTM_PATH,
    IRREVOCABLE_PATH,
    SW_PATH,
    FallbackPolicy,
    FallbackSpec,
)
from repro.runtime.api import TMBackend

#: Hardware begin/commit are a handful of cycles; the software slow
#: path pays STM-style per-access and commit-time bookkeeping.
BEGIN_CYCLES = {HTM_PATH: 2, SW_PATH: 10, IRREVOCABLE_PATH: 10}
COMMIT_CYCLES = {HTM_PATH: 3, SW_PATH: 12, IRREVOCABLE_PATH: 12}
#: Software cost of write-set lookup preceding every slow-path read.
SW_READ_BOOKKEEPING_CYCLES = 6
#: Software cost of logging a slow-path write.
SW_WRITE_BOOKKEEPING_CYCLES = 8
#: Buffering a store into the hardware write set.
HTM_STORE_CYCLES = 1
#: Discarding speculative state after an abort.
ABORT_CYCLES = 8


class HtmThreadState:
    """One in-flight attempt: its path, sets, redo log, and doom flags."""

    __slots__ = (
        "path", "read_lines", "write_lines", "write_map",
        "doomed", "abort_kind", "abort_by", "committing",
    )

    def __init__(self, path: str):
        self.path = path
        self.read_lines: Set[int] = set()
        self.write_lines: Set[int] = set()
        self.write_map: Dict[int, int] = {}
        #: Set when a peer (or the runtime) kills this attempt; the
        #: scheduler's check_aborted poll delivers the abort before the
        #: thread executes another operation.
        self.doomed = False
        #: Wound attribution for the pending abort (also set on
        #: self-aborts, so on_abort can advance the fallback ladder).
        self.abort_kind = ""
        self.abort_by = -1
        #: True during commit write-back: the attempt can no longer be
        #: doomed, and conflicting peers must keep self-aborting until
        #: the write-back is complete.
        self.committing = False


class HtmBestEffortRuntime(TMBackend):
    """Best-effort HTM with capacity bounds and a fallback ladder."""

    name = "HTM-BE"

    def __init__(
        self,
        machine: FlexTMMachine,
        spec: Optional[FallbackSpec] = None,
    ):
        self.machine = machine
        self.read_capacity = machine.params.htm_read_lines
        self.write_capacity = machine.params.htm_write_lines
        self.policy = FallbackPolicy(spec)
        self.policy.bind_runtime(self)
        machine.htm_fallback = self.policy
        self._offset_bits = machine.params.offset_bits
        #: thread id -> in-flight attempt.
        self._active: Dict[int, HtmThreadState] = {}

    # ---------------------------------------------------------------- helpers

    def _line(self, address: int) -> int:
        return address >> self._offset_bits

    def _state(self, thread) -> HtmThreadState:
        return self._active[thread.thread_id]

    def _raise_if_doomed(self, state: HtmThreadState) -> None:
        if state.doomed:
            raise TransactionAborted(
                "attempt doomed", by=state.abort_by, conflict=state.abort_kind
            )

    def _self_abort(
        self, state: HtmThreadState, kind: str, by: int, reason: str
    ) -> None:
        """Record attribution for on_abort, then unwind the attempt."""
        state.abort_kind = kind
        state.abort_by = by
        raise TransactionAborted(reason, by=by, conflict=kind)

    def _doom(self, state: HtmThreadState, by: int, kind: str) -> None:
        state.doomed = True
        state.abort_kind = kind
        state.abort_by = by

    def _check_conflict(
        self, thread, state: HtmThreadState, line: int, is_write: bool
    ) -> None:
        """Eager detection: the requesting attempt aborts on any clash.

        Doomed peers are skipped (their speculative state is already
        dead); committing peers are not — until their write-back
        completes, touching their lines must keep aborting the
        requestor, or it could observe a torn commit.
        """
        if state.path == IRREVOCABLE_PATH:
            return  # peers were drained; the holder cannot lose
        tid = thread.thread_id
        for other_tid, other in self._active.items():
            if other_tid == tid or other.doomed:
                continue
            if line in other.write_lines or (is_write and line in other.read_lines):
                self._self_abort(
                    state,
                    kind="htm-conflict",
                    by=other_tid,
                    reason=(
                        f"line {line:#x} conflicts with thread "
                        f"{other_tid}'s in-flight attempt"
                    ),
                )

    # ---------------------------------------------------------- TMBackend API

    def begin(self, thread) -> Iterator[Tuple]:
        tid = thread.thread_id
        policy = self.policy
        poll = policy.spec.lock_poll_cycles
        path = policy.path_for(tid)
        if path == IRREVOCABLE_PATH:
            policy.token.enqueue(tid)
            while not policy.token.try_grant(tid):
                yield ("work", poll)
            policy.note_grant()
            # Drain: kill every in-flight peer that is not already
            # committing, then wait out the committers' write-backs.
            for other in self._active.values():
                if not other.committing and not other.doomed:
                    self._doom(other, by=tid, kind="fallback")
                    policy.note_doom()
            while any(other.committing for other in self._active.values()):
                yield ("work", poll)
            policy.serial_active = True
        else:
            # No new attempt starts while the system drains into (or
            # runs in) serial mode — the htm-sw-mutex invariant.
            while policy.token.busy:
                yield ("work", poll)
        self._active[tid] = HtmThreadState(path)
        yield ("work", BEGIN_CYCLES[path])

    def read(self, thread, address: int) -> Iterator[Tuple]:
        state = self._state(thread)
        self._raise_if_doomed(state)
        if state.path == SW_PATH:
            yield ("work", SW_READ_BOOKKEEPING_CYCLES)
        if address in state.write_map:
            return state.write_map[address]
        line = self._line(address)
        self._check_conflict(thread, state, line, is_write=False)
        if line not in state.write_lines and line not in state.read_lines:
            if state.path == HTM_PATH and len(state.read_lines) >= self.read_capacity:
                self._self_abort(
                    state,
                    kind="capacity",
                    by=-1,
                    reason=(
                        f"read set exceeds {self.read_capacity} "
                        f"hardware lines"
                    ),
                )
            state.read_lines.add(line)
        result = yield ("load", address)
        return result.value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        state = self._state(thread)
        self._raise_if_doomed(state)
        if state.path == SW_PATH:
            yield ("work", SW_WRITE_BOOKKEEPING_CYCLES)
        line = self._line(address)
        self._check_conflict(thread, state, line, is_write=True)
        if line not in state.write_lines:
            if state.path == HTM_PATH and len(state.write_lines) >= self.write_capacity:
                self._self_abort(
                    state,
                    kind="capacity",
                    by=-1,
                    reason=(
                        f"write set exceeds {self.write_capacity} "
                        f"hardware lines"
                    ),
                )
            state.write_lines.add(line)
        state.write_map[address] = value
        yield ("work", HTM_STORE_CYCLES)

    def commit(self, thread) -> Iterator[Tuple]:
        tid = thread.thread_id
        state = self._state(thread)
        self._raise_if_doomed(state)
        yield ("work", COMMIT_CYCLES[state.path])
        state.committing = True
        for address, value in state.write_map.items():
            yield ("store", address, value)
        del self._active[tid]
        self.policy.note_commit(tid, state.path)

    def on_abort(self, thread) -> Iterator[Tuple]:
        tid = thread.thread_id
        state = self._active.pop(tid, None)
        if state is not None:
            self.policy.note_abort(tid, state.abort_kind)
            if self.policy.token.holder == tid:
                # An irrevocable attempt should be unkillable, but if
                # the workload itself aborts it the token must not leak.
                self.policy.serial_active = False
                self.policy.token.release(tid)
        yield ("work", ABORT_CYCLES)

    def check_aborted(self, thread) -> bool:
        state = self._active.get(thread.thread_id)
        return state is not None and state.doomed and not state.committing

    def suspend(self, thread):
        state = self._active.get(thread.thread_id)
        if (
            state is not None
            and state.path == HTM_PATH
            and not state.committing
            and not state.doomed
        ):
            # A context switch destroys hardware transactional state.
            self._doom(state, by=-1, kind="explicit")
        return None

    def resume(self, thread, processor: int, saved):
        state = self._active.get(thread.thread_id)
        if state is not None and state.doomed and not state.committing:
            return "aborted"
        return None

    def retry_backoff(self, aborts_in_a_row: int) -> int:
        return self.policy.backoff(aborts_in_a_row)

    # ------------------------------------------------- scheduler/probe hooks

    def abort_exception(self, thread, cause: str) -> TransactionAborted:
        """The delivered abort, attributed from the doomed attempt."""
        state = self._active.get(thread.thread_id)
        if state is not None and state.doomed and state.abort_kind:
            return TransactionAborted(cause, by=state.abort_by, conflict=state.abort_kind)
        return TransactionAborted(cause)

    def escalation_counters(self) -> Dict[str, int]:
        return self.policy.escalation_counters()

    def active_attempts(self) -> List[Tuple[int, str, bool, bool]]:
        """``(thread_id, path, committing, doomed)`` rows, sorted."""
        return [
            (tid, state.path, state.committing, state.doomed)
            for tid, state in sorted(self._active.items())
        ]
