"""The FlexTM software runtime (Sections 3.5–3.6).

Implements BEGIN_TRANSACTION / END_TRANSACTION over the hardware
machine: descriptor setup, register checkpointing, TSW ALoading, the
eager conflict-manager dispatch on Threatened/Exposed-Read responses,
and the lazy Commit() routine of Figure 3 — copy-and-clear the W-R and
W-W registers, CAS each named enemy's TSW from ACTIVE to ABORTED, then
CAS-Commit, looping if new conflicts arrived in the window.

All of commit/abort is purely local software: no commit token, no
write-set broadcast, no ticket serialization.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.coherence.directory import set_bits
from repro.coherence.messages import AccessKind
from repro.coherence.tables import CST_LABELS, REQUESTER_CST
from repro.core.cmt import ConflictManagementTable
from repro.core.descriptor import ConflictMode, RunState, TransactionDescriptor
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.errors import InvariantViolation, TransactionAborted
from repro.runtime.api import TMBackend
from repro.runtime.contention import ConflictManager, Decision, PolkaManager

#: Register-checkpoint (setjmp) cost at BEGIN_TRANSACTION; the paper
#: notes it is FlexTM's main remaining software overhead and is nearly
#: constant across thread counts.
CHECKPOINT_CYCLES = 25
#: Back-off before re-issuing a NACKed request (committed-OT copy-back).
NACK_RETRY_CYCLES = 40

# Members read on every access and every scheduler poll, bound once: a
# class-attribute read of an enum member is a slow path.
_EAGER = ConflictMode.EAGER
_ABORTED = TxStatus.ABORTED
_TLOAD = AccessKind.TLOAD
_TSTORE = AccessKind.TSTORE


class FlexTMRuntime(TMBackend):
    """TM backend driving the FlexTM hardware."""

    name = "FlexTM"

    def __init__(
        self,
        machine: FlexTMMachine,
        mode: ConflictMode = ConflictMode.EAGER,
        manager: Optional[ConflictManager] = None,
        clean_r_w: bool = True,
    ):
        self.machine = machine
        self.mode = mode
        self.manager = manager or PolkaManager()
        #: Figure 3's optional hygiene: clean self out of enemies' W-R
        #: at commit to avoid spurious aborts of the next incarnation.
        self.clean_r_w = clean_r_w
        self.cmt = ConflictManagementTable(machine.params.num_processors)
        # Bound once for the per-step abort poll.
        self._processors = machine.processors
        self._words = machine.memory.words
        #: The ``cst.conflict_degree`` histogram, recorded at each commit.
        self._conflict_degrees = machine.stats.histogram("cst.conflict_degree")

    # ----------------------------------------------------------------- begin

    def begin(self, thread) -> Iterator[Tuple]:
        # Subsumption nesting (Section 3.5): an inner BEGIN merely
        # deepens the outermost transaction; only depth 0 touches
        # hardware.  An abort unwinds the whole nest.
        depth = thread.nest_depth
        if depth > 0:
            thread.nest_depth = depth + 1
            yield ("work", 1)
            return
        thread.nest_depth = 1
        proc_id = thread.processor
        descriptor = thread.descriptor
        if descriptor is None:
            tsw = self.machine.allocate(self.machine.params.line_bytes, line_aligned=True)
            descriptor = TransactionDescriptor(
                thread_id=thread.thread_id, tsw_address=tsw, mode=self.mode
            )
            thread.descriptor = descriptor
        descriptor.incarnation += 1
        descriptor.accesses = 0
        # Fresh attempt: clear stale wound attribution.
        descriptor.wounded_by = -1
        descriptor.wound_kind = ""
        # The E/L bit is re-derived per attempt: the degradation ladder
        # may flip a starving lazy transaction to eager (paper §Policy
        # flexibility).  Without a controller this is always self.mode.
        resilience = self.machine.resilience
        descriptor.mode = (
            resilience.mode_for(thread, self.mode)
            if resilience is not None
            else self.mode
        )
        descriptor.run_state = RunState.RUNNING
        descriptor.saved = None
        self.machine.register_descriptor(descriptor)
        self.cmt.register(proc_id, descriptor)
        proc = self.machine.processors[proc_id]
        proc.begin_transaction(descriptor)
        proc.alerts.clear()
        yield ("store", descriptor.tsw_address, TxStatus.ACTIVE)
        yield ("aload", descriptor.tsw_address)
        yield ("work", CHECKPOINT_CYCLES)

    # ------------------------------------------------------------ read/write

    # read and write re-issue a NACKed request (committed-OT copy-back)
    # after a back-off themselves, not through a helper generator: one
    # generator frame per access instead of two.

    def read(self, thread, address: int) -> Iterator[Tuple]:
        op = ("tload", address)
        result = yield op
        while result.nacked:
            yield ("work", NACK_RETRY_CYCLES)
            result = yield op
        if result.conflicts and thread.descriptor.mode is _EAGER:
            yield from self._manage_conflicts(thread, result.conflicts, _TLOAD)
        return result.value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        op = ("tstore", address, value)
        result = yield op
        while result.nacked:
            yield ("work", NACK_RETRY_CYCLES)
            result = yield op
        if result.conflicts and thread.descriptor.mode is _EAGER:
            yield from self._manage_conflicts(thread, result.conflicts, _TSTORE)

    # ------------------------------------------------- eager conflict manager

    def _manage_conflicts(self, thread, conflicts, access=AccessKind.TSTORE) -> Iterator[Tuple]:
        """CMPC dispatch: resolve each conflicting processor in turn.

        Resolution ends with the local CST bit for that processor
        cleared — which is why an eager transaction normally reaches its
        commit point with empty CSTs.
        """
        my_descriptor = thread.descriptor
        proc = self.machine.processors[thread.processor]
        for enemy_proc, response in conflicts:
            cst_kind = CST_LABELS.get(REQUESTER_CST.get((access, response)), "")
            attempt = 0
            while True:
                enemy = self._active_enemy(enemy_proc, my_descriptor)
                if enemy is None:
                    break  # conflict resolved itself (enemy finished)
                ruling = self.manager.decide(attempt, my_descriptor.accesses, enemy.accesses)
                if ruling.decision is Decision.WAIT:
                    attempt += 1
                    backoff = max(1, ruling.backoff_cycles)
                    yield ("work", backoff)
                    tracer = self.machine.tracer
                    if tracer.enabled and thread.processor is not None:
                        tracer.stall(
                            thread.processor,
                            self.machine.processors[thread.processor].clock.now,
                            backoff,
                            enemy=enemy_proc,
                        )
                    # A committing enemy aborts *us* during this window;
                    # the scheduler's abort poll unwinds the generator.
                    continue
                if ruling.decision is Decision.ABORT_ENEMY:
                    self.machine.stage_wound(enemy.tsw_address, thread.processor, cst_kind)
                    yield ("cas", enemy.tsw_address, TxStatus.ACTIVE, TxStatus.ABORTED)
                    break
                # ABORT_SELF
                self.machine.stage_wound(my_descriptor.tsw_address, enemy_proc, cst_kind)
                yield ("cas", my_descriptor.tsw_address, TxStatus.ACTIVE, TxStatus.ABORTED)
                raise TransactionAborted(
                    "self-abort by conflict manager", by=enemy_proc, conflict=cst_kind
                )
            proc.csts.r_w.clear_bit(enemy_proc)
            proc.csts.w_r.clear_bit(enemy_proc)
            proc.csts.w_w.clear_bit(enemy_proc)
            yield ("work", 3)

    def _active_enemy(self, enemy_proc: int, me: TransactionDescriptor):
        """The still-active conflicting descriptor on a processor, if any."""
        for descriptor in self.cmt.active_on(enemy_proc):
            if descriptor is me:
                continue
            if self.machine.read_status(descriptor) is TxStatus.ACTIVE:
                return descriptor
        return None

    # ----------------------------------------------------------------- commit

    def commit(self, thread) -> Iterator[Tuple]:
        depth = thread.nest_depth
        if depth > 1:
            # Inner commit of a subsumed transaction: nothing to do.
            thread.nest_depth = depth - 1
            yield ("work", 1)
            return
        thread.nest_depth = 0
        proc_id = thread.processor
        proc = self.machine.processors[proc_id]
        descriptor = thread.descriptor
        self._conflict_degrees.record(len(proc.conflict_partners))
        # NOTE: Figure 3's optional hygiene — "T may clean itself out of
        # X's W-R, where X is in T's R-W" — must wait until T's own
        # CAS-Commit has succeeded.  Cleaning *before* committing races
        # with X's concurrent commit: if X also conflicts with T the
        # other way (write skew), the early clean erases X's only
        # reason to wound T, and both can commit.  Our serializability
        # oracle (tests/integration/test_recorded_serializability.py)
        # catches exactly this interleaving.
        csts = proc.csts
        readers = csts.r_w._bits
        cleaning_targets = set_bits(readers) if readers and self.clean_r_w else ()
        w_r, w_w = csts.w_r, csts.w_w
        while True:
            # Figure 3, line 1: copy-and-clear W-R and W-W.
            w_r_mask = w_r.copy_and_clear()
            w_w_mask = w_w.copy_and_clear()
            mask = w_r_mask | w_w_mask
            yield ("work", 2)
            # Lines 2-3: abort every conflicting transaction.  A CST bit
            # for our *own* processor is legitimate: it names a
            # suspended transaction whose CMT home is this core.
            for enemy_proc in set_bits(mask) if mask else ():
                cst_kind = CST_LABELS["w_w" if (w_w_mask >> enemy_proc) & 1 else "w_r"]
                for enemy in self.cmt.active_on(enemy_proc):
                    if enemy is descriptor:
                        continue
                    if enemy.run_state is RunState.SUSPENDED and not self._overlaps(proc, enemy):
                        continue
                    self.machine.stage_wound(enemy.tsw_address, proc_id, cst_kind)
                    yield ("cas", enemy.tsw_address, TxStatus.ACTIVE, TxStatus.ABORTED)
            # Line 4: CAS-Commit our own status word.
            result = yield ("cas_commit",)
            if result.success:
                descriptor.commits += 1
                # Safe point for the W-R hygiene: we are committed, so
                # enemies that CAS our TSW now simply fail; clearing our
                # bit only prevents spurious wounds of our *next*
                # incarnation.
                for reader_victim in cleaning_targets:
                    self.machine.processors[reader_victim].csts.w_r.clear_bit(proc_id)
                    yield ("work", 1)
                self._finish(thread)
                return
            if result.value != TxStatus.ACTIVE:
                raise TransactionAborted(
                    "lost the commit race",
                    by=descriptor.wounded_by,
                    conflict=descriptor.wound_kind,
                )
            # Line 5: still active, new conflicts arrived — go again.

    def _overlaps(self, proc, suspended: TransactionDescriptor) -> bool:
        """Software signature test against a suspended enemy (§5)."""
        saved = suspended.saved
        if saved is None:
            return True  # being switched right now; be conservative
        return proc.wsig.intersects(saved.rsig) or proc.wsig.intersects(saved.wsig)

    def _finish(self, thread) -> None:
        descriptor = thread.descriptor
        proc = self.machine.processors[thread.processor]
        self.cmt.unregister(descriptor)
        self.machine.unregister_descriptor(descriptor)
        proc.end_transaction()

    # ------------------------------------------------------------------ abort

    def on_abort(self, thread) -> Iterator[Tuple]:
        thread.nest_depth = 0  # an abort unwinds the entire nest
        descriptor = thread.descriptor
        proc = self.machine.processors[thread.processor]
        if proc.current is descriptor:
            proc.flash_abort()
            proc.end_transaction()
        self.cmt.unregister(descriptor)
        self.machine.unregister_descriptor(descriptor)
        yield ("work", 10)  # unwind / longjmp cost

    def check_aborted(self, thread) -> bool:
        """Scheduler poll: has an enemy flipped our TSW?

        Models the AOU delivery — the alert raised by the TSW-line
        invalidation makes the handler read the TSW and unwind.  The
        raw word is compared, so every way ABORTED reaches the TSW
        counts, whatever happened to the alert.
        """
        descriptor = thread.descriptor
        if descriptor is None or not thread.in_transaction:
            return False
        alerts = self._processors[thread.processor].alerts
        if alerts.pending:
            alerts.drain()
        return self._words.get(descriptor.tsw_address, 0) == _ABORTED

    def abort_exception(self, thread, cause: str) -> TransactionAborted:
        """The delivered abort, carrying the wound staged on the descriptor.

        The scheduler delivers an abort only to a thread whose TSW is
        ABORTED, which every path writes with staged attribution.  Under
        strict invariants a missing kind is therefore a diagnosable
        attribution loss, not a silent ``kind=""`` entry in the abort
        taxonomy.
        """
        descriptor = thread.descriptor
        by = descriptor.wounded_by
        kind = descriptor.wound_kind
        if not kind:
            invariants = self.machine.invariants
            if invariants is not None and invariants.strict:
                raise InvariantViolation(
                    "wound-attribution",
                    f"thread {thread.thread_id} unwound ({cause}) with a "
                    f"descriptor carrying no wound attribution "
                    f"(wounded_by={by})",
                )
        return TransactionAborted(cause, by=by, conflict=kind)

    def retry_backoff(self, aborts_in_a_row: int) -> int:
        return self.manager.retry_backoff(aborts_in_a_row)

    # -------------------------------------------------- context-switch hooks

    def suspend(self, thread):
        """OS suspend path (Section 5): spill state, install summaries."""
        descriptor = thread.descriptor
        if descriptor is None or not thread.in_transaction:
            return None
        proc = self.machine.processors[thread.processor]
        if proc.current is not descriptor:
            return None
        descriptor.run_state = RunState.SUSPENDED
        saved = proc.save_transactional_state()
        descriptor.saved = saved
        self.machine.summary.install(
            descriptor.thread_id, saved.rsig, saved.wsig, saved.last_processor
        )
        self.machine.register_suspended(descriptor)
        return saved

    def resume(self, thread, processor: int, saved) -> str:
        """OS resume path; returns "ok", "aborted", or "fresh".

        Migration to a different processor uses the paper's
        abort-and-restart policy (lazy versioning makes migration of
        speculative state complex, so FlexTM just doesn't).
        """
        descriptor = thread.descriptor
        if descriptor is None or saved is None:
            return "fresh"
        self.machine.summary.remove(descriptor.thread_id)
        self.machine.unregister_suspended(descriptor.thread_id)
        if self.machine.read_status(descriptor) is TxStatus.ABORTED:
            descriptor.saved = None
            return "aborted"
        if processor != saved.last_processor:
            # Routed through the machine so the abort carries attribution
            # and the TSW write stays invariant-checked.
            if not self.machine.force_abort(descriptor, by=-1, kind="migration"):
                # The TSW resolved while descheduled (e.g. the flash
                # commit landed but the commit path was interrupted);
                # the restart is still migration policy, so stamp the
                # attribution the CAS could not deliver.
                descriptor.wounded_by = -1
                descriptor.wound_kind = "migration"
            descriptor.saved = None
            self.machine.stats.counter("ctxsw.migration_aborts").increment()
            return "aborted"
        proc = self.machine.processors[processor]
        proc.restore_transactional_state(descriptor, saved)
        descriptor.run_state = RunState.RUNNING
        descriptor.saved = None
        self.cmt.register(processor, descriptor)
        return "ok"
