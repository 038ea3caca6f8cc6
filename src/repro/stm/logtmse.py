"""A LogTM-SE-style system: eager versioning, stall-based conflicts.

The paper contrasts FlexTM with LogTM-SE (Section 2, Section 5,
Section 6) on three axes, all modelled here:

* **No remote aborts** — LogTM-SE "does not allow transactions to abort
  one another": the conflict manager may only stall the requestor or
  abort *itself* (after bounded stalling, the possible-deadlock trap).
* **Eager versioning** — new values go to memory, old values to an
  undo log.  Commits are cheap (drop the log) but aborts must walk the
  log *in reverse* (the time-ordering constraint Section 4.1 contrasts
  with the OT's order-free copy-back), charged per logged write.  The
  log insertions themselves consume cycles and L1 bandwidth on every
  speculative write — overhead FlexTM's PDI avoids.
* **Convoying** — because a requestor can only stall, transactions
  queue behind a conflicting transaction that is descheduled
  (Section 5's argument for FlexTM's remote aborts).

Mechanically we ride on the same machine: signatures detect conflicts
exactly as in FlexTM, but the runtime's policy is stall-until-clean, so
no access ever completes against a conflicting line — which is what
makes eager versioning safe without making uncommitted values visible.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.errors import TransactionAborted
from repro.runtime.flextm import FlexTMRuntime, NACK_RETRY_CYCLES
from repro.sim.rng import DeterministicRng

#: Cycles to append one entry to the in-memory undo log (old value
#: read + log write; on the critical path, unlike FlexTM's PDI).
LOG_INSERT_CYCLES = 14
#: Cycles to restore one logged line during an abort (reverse walk).
UNDO_PER_WRITE_CYCLES = 22
#: Stall attempts before declaring possible deadlock and self-aborting.
MAX_STALL_ATTEMPTS = 24


class LogTmSeRuntime(FlexTMRuntime):
    """LogTM-SE modelled on the FlexTM substrate."""

    name = "LogTM-SE"

    def __init__(self, machine: FlexTMMachine, rng: DeterministicRng = None):
        # Conflicts are handled by our own stall loops, so the base
        # class runs in LAZY mode (no manager dispatch) and we keep the
        # CSTs from triggering commit-time wounds by stalling until the
        # access is conflict-free.
        super().__init__(machine, mode=ConflictMode.LAZY, clean_r_w=False)
        self.rng = rng or DeterministicRng(0x105)

    def thread_state(self) -> List[int]:
        """The undo log: the address of every speculative write."""
        return []

    # -------------------------------------------------------------- accesses

    def read(self, thread, address: int) -> Iterator[Tuple]:
        value = yield from self._stalling_access(thread, ("tload", address))
        return value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        yield from self._stalling_access(thread, ("tstore", address, value))
        # Undo-log insertion on the critical path.
        thread.tm.append(address)
        yield ("work", LOG_INSERT_CYCLES)

    def _stalling_access(self, thread, op: Tuple) -> Iterator[Tuple]:
        """Retry the access until it completes without conflicts.

        A conflicting access leaves CST bits behind on both sides; we
        clear our own after every failed attempt (the stall resolved
        nothing yet) and re-issue.  After MAX_STALL_ATTEMPTS the
        possible-deadlock trap fires and we abort *ourselves* — the only
        abort LogTM-SE hardware can perform.
        """
        proc = self.machine.processors[thread.processor]
        attempt = 0
        while True:
            result = yield op
            if result.nacked:
                yield ("work", NACK_RETRY_CYCLES)
                continue
            if not result.conflicts:
                return result.value
            # Withdraw from the conflict: clear the bits this attempt
            # set on our side (the enemy's bits age out at its commit)
            # and drop the just-installed line — a NACKed LogTM request
            # never delivers data, so the retry must go back to the
            # directory rather than hit a stale local copy.
            for enemy_proc, _kind in result.conflicts:
                proc.csts.r_w.clear_bit(enemy_proc)
                proc.csts.w_r.clear_bit(enemy_proc)
                proc.csts.w_w.clear_bit(enemy_proc)
            line_address = self.machine.amap.line_of(op[1])
            proc.l1.array.remove(line_address)
            attempt += 1
            if attempt >= MAX_STALL_ATTEMPTS:
                yield from self._self_abort(thread)
            yield ("work", self.rng.randint(8, 16 << min(attempt, 7)))

    def _self_abort(self, thread) -> Iterator[Tuple]:
        descriptor = thread.descriptor
        # Stage attribution before flipping our own TSW: the scheduler's
        # abort poll sees the flip on the very next step — before the
        # raise below ever runs — and an unstaged flip is exactly the
        # attribution loss strict invariants diagnose.
        self.machine.stage_wound(
            descriptor.tsw_address, thread.thread_id, "stall-deadlock"
        )
        yield ("cas", descriptor.tsw_address, TxStatus.ACTIVE, TxStatus.ABORTED)
        raise TransactionAborted(
            "LogTM-SE possible-deadlock self-abort",
            by=thread.thread_id,
            conflict="stall-deadlock",
        )

    # ----------------------------------------------------------------- commit

    def commit(self, thread) -> Iterator[Tuple]:
        depth = thread.nest_depth
        if depth > 1:
            thread.nest_depth = depth - 1
            yield ("work", 1)
            return
        # Stalling resolved every conflict before the access completed,
        # so commit is a bare CAS-Commit.  Any CST bits we carry were
        # set by enemies' *withdrawn* probe attempts (they never used
        # the data), so they are cleared rather than enforced — LogTM
        # has no commit-time arbitration at all.
        proc = self.machine.processors[thread.processor]
        descriptor = thread.descriptor
        self._conflict_degrees.record(len(proc.conflict_partners))
        while True:
            proc.csts.clear()
            result = yield ("cas_commit",)
            if result.success:
                thread.nest_depth = 0
                descriptor.commits += 1
                thread.tm.clear()  # log discarded, free
                self._finish(thread)
                return
            if result.value != TxStatus.ACTIVE:
                thread.nest_depth = 0
                raise TransactionAborted(
                    "lost the commit race",
                    by=descriptor.wounded_by,
                    conflict=descriptor.wound_kind,
                )

    # ------------------------------------------------------------------ abort

    def on_abort(self, thread) -> Iterator[Tuple]:
        # The undo log must be replayed in reverse, one line at a time —
        # abort cost scales with the write set (vs FlexTM's flash).
        if thread.tm:
            yield ("work", len(thread.tm) * UNDO_PER_WRITE_CYCLES)
        thread.tm.clear()
        yield from super().on_abort(thread)
