"""One FlexTM core: signatures, CSTs, AOU, OT controller, private L1.

The processor object implements the L1 hook interface, which is where
the decoupled mechanisms meet the coherence protocol:

* forwarded requests are classified against ``Rsig``/``Wsig`` and the
  responder-side CST bits are set (Figure 1's response table);
* evicted TMI lines are spilled through the overflow controller;
* invalidations of A-marked lines raise alerts.

Requestor-side CST updates happen in :meth:`note_request_conflicts`
when the response arrives, mirroring the hardware's symmetric update.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coherence.directory import Directory
from repro.coherence.l1 import L1Controller
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.states import LineState
from repro.coherence.tables import REQUESTER_CST, RESPONDER_CST, RESPONSE_TABLE
from repro.core.aou import AlertUnit
from repro.core.cst import ConflictSummaryTables
from repro.core.descriptor import SavedHardwareState, TransactionDescriptor
from repro.core.overflow import OverflowController
from repro.obs.tracer import NULL_TRACER
from repro.params import SystemParams
from repro.sim.clock import CycleClock
from repro.sim.stats import StatsRegistry
from repro.signatures.bloom import Signature

#: Cycles for the first-overflow software trap that allocates an OT.
OT_ALLOCATE_TRAP_CYCLES = 200
#: Controller cycles to write one evicted TMI line into the OT.
OT_SPILL_CYCLES = 20
#: Controller cycles to pull an overflowed line back on an L1 miss.
OT_REFILL_CYCLES = 20
#: Per-line copy-back cost at commit (runs on the controller, but
#: defines the NACK window seen by other processors).
OT_COPYBACK_CYCLES_PER_LINE = 20

#: Members read per conflicting forward, bound once: a global read is
#: cheaper than a class-attribute read of a member.
_THREATENED = ResponseKind.THREATENED
_EXPOSED_READ = ResponseKind.EXPOSED_READ


class FlexTMProcessor:
    """Per-core FlexTM state and hook logic."""

    def __init__(
        self,
        proc_id: int,
        params: SystemParams,
        directory: Directory,
        stats: Optional[StatsRegistry] = None,
        tmi_to_victim: bool = False,
    ):
        self.proc_id = proc_id
        self.params = params
        self.stats = stats or StatsRegistry()
        #: Observability hook (installed by FlexTMMachine.attach).
        self.tracer = NULL_TRACER
        #: Fault injection (installed by FlexTMMachine.attach).
        self.chaos = None
        #: Degradation controller (installed by FlexTMMachine.attach).
        self.resilience = None
        self.clock = CycleClock()
        self.rsig = Signature(params.signature_bits, params.signature_hashes)
        self.wsig = Signature(params.signature_bits, params.signature_hashes)
        self.csts = ConflictSummaryTables(params.num_processors)
        self.alerts = AlertUnit()
        self.ot = OverflowController(
            signature_bits=params.signature_bits,
            num_hashes=params.signature_hashes,
            default_sets=params.ot_initial_sets,
            associativity=params.ot_associativity,
        )
        self.l1 = L1Controller(
            proc_id, params, directory, hooks=self, stats=self.stats, tmi_to_victim=tmi_to_victim
        )
        #: Descriptor of the transaction currently running here (if any).
        self.current: Optional[TransactionDescriptor] = None
        #: Speculative word values of the current transaction (PDI/OT
        #: content, value view).
        self.overlay: Dict[int, int] = {}
        #: FlexWatcher support: when True, *local* accesses that hit the
        #: activated signature raise an alert (Table 4a 'activate').
        self.local_monitoring = False
        #: Processors this transaction's W-R/W-W registers have named —
        #: the per-transaction statistic of the Figure 4 conflict table.
        self.conflict_partners = set()

    # -- L1 hook interface -------------------------------------------------------

    def _sig_member(self, which: str, line_address: int) -> bool:
        """Signature membership test, optionally corrupted by chaos.

        Corruption is gated on a running transaction: an idle core's
        signatures are architecturally clean, so flipping them would
        manufacture states the hardware cannot reach (and trip the
        idle-hygiene invariant on a healthy protocol).
        """
        sig = self.wsig if which == "wsig" else self.rsig
        actual = sig.member(line_address)
        if self.chaos is not None and self.chaos.enabled and self.current is not None:
            if self.resilience is not None and self.resilience.quiesced(self.proc_id):
                # Serial-irrevocable holder: signatures are quiesced, so
                # chaos corruption cannot touch its conflict answers.
                return actual
            return self.chaos.sig_member(which, line_address, actual)
        return actual

    def classify_remote(
        self, requestor: int, req_type: RequestType, line_address: int
    ) -> Optional[ResponseKind]:
        """Signature checks for a forwarded request; sets responder CSTs.

        Wsig is consulted first: a Wsig hit answers regardless of Rsig.
        Strong isolation's cells (a plain GETX) have no ``RESPONDER_CST``
        entry: the requestor aborts this transaction outright instead
        (Section 3.5).

        When chaos cannot corrupt the answer (no engine, a disabled one,
        or no running transaction), an empty register is skipped
        without a probe: it hits nothing.  Otherwise both probes go
        through :meth:`_sig_member` in Wsig-then-Rsig order, so the
        engine draws the same rolls.
        """
        chaos = self.chaos
        if chaos is None or not chaos.enabled or self.current is None:
            wsig, rsig = self.wsig, self.rsig
            if wsig.word and wsig.member(line_address):
                category = "wsig"
            elif rsig.word and rsig.member(line_address):
                category = "rsig_only"
            else:
                return None
        elif self._sig_member("wsig", line_address):
            category = "wsig"
        elif self._sig_member("rsig", line_address):
            category = "rsig_only"
        else:
            return None
        cst = RESPONDER_CST.get((req_type, category))
        if cst is not None:
            self._record_conflict(cst, requestor)
        response = RESPONSE_TABLE[req_type, category]
        if response is _THREATENED:
            self.stats.counter("cst.threatened_responses").increment()
        elif response is _EXPOSED_READ:
            self.stats.counter("cst.exposed_read_responses").increment()
        return response

    def _record_conflict(self, cst: str, processor: int) -> None:
        """Set ``processor``'s bit in one CST; W-R/W-W name a partner."""
        getattr(self.csts, cst).set(processor)
        if cst != "r_w":
            self.conflict_partners.add(processor)

    def holds_overflow(self, line_address: int) -> bool:
        return self.ot.lookup(line_address)

    def spill_tmi(self, line_address: int) -> int:
        """Evicted TMI line -> overflow table; returns trap+spill cycles."""
        cycles = OT_SPILL_CYCLES
        if not self.ot.active:
            self.ot.allocate(self.current.thread_id if self.current else self.proc_id)
            cycles += OT_ALLOCATE_TRAP_CYCLES
            self.stats.counter("ot.allocations").increment()
        self.ot.spill(line_address)
        self.stats.counter("ot.spills").increment()
        if self.tracer.enabled:
            self.tracer.overflow(
                self.proc_id, self.clock.now, "spill", line_address, dur=cycles
            )
        return cycles

    def on_alert(self, line_address: int, reason: str) -> None:
        self.alerts.raise_alert(line_address, reason)
        if self.tracer.enabled:
            self.tracer.aou_alert(self.proc_id, self.clock.now, line_address, reason)

    # -- transactional access helpers ---------------------------------------------

    def ot_refill(self, line_address: int) -> int:
        """Pull an overflowed line back into the L1 before an access.

        Returns the cycles spent (0 when the line is not in the OT).
        """
        if not self.ot.lookup(line_address):
            return 0
        walk_cycles = OT_REFILL_CYCLES + self.ot.walk_penalty(line_address, OT_REFILL_CYCLES)
        self.ot.extract(line_address)
        # Reinstall as TMI; this may evict another line (possibly
        # spilling it right back — the pathological ping-pong a sane OT
        # geometry avoids).
        self.l1.install(line_address, LineState.TMI)
        self.stats.counter("ot.refills").increment()
        if self.tracer.enabled:
            self.tracer.overflow(
                self.proc_id, self.clock.now, "walk", line_address, dur=walk_cycles
            )
        return walk_cycles

    def note_request_conflicts(
        self, kind: AccessKind, conflicts: List[Tuple[int, ResponseKind]]
    ) -> None:
        """Requestor-side CST updates on conflicting responses."""
        for responder, response in conflicts:
            cst = REQUESTER_CST.get((kind, response))
            if cst is not None:
                self._record_conflict(cst, responder)

    # -- transaction lifecycle -------------------------------------------------
    #
    # The boundaries test the OT's ``table`` slot (what ``ot.active``
    # reads) and zero the registers through :meth:`_clear_registers`.

    def _clear_registers(self) -> None:
        """Flash-zero Rsig, Wsig and the three CSTs.

        Stores what ``Signature.clear`` and ``CstRegister.clear`` store,
        in one frame (a kept copy: docs/PROTOCOL.md §7).  The signatures
        are read at call time: :meth:`restore_transactional_state`
        installs new ones.
        """
        rsig = self.rsig
        rsig.word = 0
        rsig._foreign = False
        wsig = self.wsig
        wsig.word = 0
        wsig._foreign = False
        csts = self.csts
        csts.r_w._bits = 0
        csts.w_r._bits = 0
        csts.w_w._bits = 0

    def begin_transaction(self, descriptor: TransactionDescriptor) -> None:
        """Install a descriptor; hardware registers start clean."""
        self.current = descriptor
        self.overlay = {}
        self._clear_registers()
        self.conflict_partners = set()
        if self.resilience is not None:
            # Signatures are provably clean here — the only legal point
            # to rotate the hash family (see DegradeSpec.sig_sustain).
            self.resilience.maybe_rotate(self)
        if self.ot.table is not None:
            self.ot.release()

    def flash_commit(self, now: int) -> int:
        """CAS-Commit success: TMI->M, TI->I, start OT copy-back.

        Returns the cycle at which the OT drain completes (== ``now``
        when nothing overflowed).
        """
        self.l1.flash_commit()
        copyback_done = self.ot.begin_copyback(now, OT_COPYBACK_CYCLES_PER_LINE)
        if copyback_done > now and self.tracer.enabled:
            # Controller-overlapped drain: informational (the profiler
            # does not charge it to the processor's cycle buckets).
            self.tracer.overflow(
                self.proc_id, self.clock.now, "copyback", dur=copyback_done - now
            )
        self._clear_registers()
        self.overlay = {}
        return copyback_done

    def flash_abort(self) -> None:
        """Abort: discard TMI/TI lines, clear registers, return the OT."""
        self.l1.flash_abort()
        self._clear_registers()
        self.overlay = {}
        if self.ot.table is not None:
            self.ot.release()
            self.stats.counter("ot.abort_releases").increment()

    def end_transaction(self) -> None:
        self.current = None
        self.overlay = {}
        self.alerts.clear()

    # -- context-switch virtualization (Section 5) -------------------------------

    def save_transactional_state(self) -> SavedHardwareState:
        """Spill hardware state to memory (suspend path).

        Order follows the paper: TMI values (overlay), OT registers,
        signatures, CSTs — then the abort instruction clears the cache.
        """
        saved = SavedHardwareState(
            overlay=dict(self.overlay),
            ot_registers=self.ot.save() if self.ot.table is not None else None,
            rsig=self.rsig.copy(),
            wsig=self.wsig.copy(),
            csts=self.csts.save(),
            last_processor=self.proc_id,
        )
        # "The OS issues an abort instruction": revert TMI/TI to I and
        # clear the registers so the next thread starts clean.  The
        # speculative values live on in ``saved``.
        self.l1.flash_abort()
        self._clear_registers()
        self.overlay = {}
        if self.ot.table is not None:
            self.ot.release()
        self.current = None
        return saved

    def restore_transactional_state(
        self, descriptor: TransactionDescriptor, saved: SavedHardwareState
    ) -> None:
        """Reinstall a suspended transaction's registers (resume path)."""
        self.current = descriptor
        self.overlay = dict(saved.overlay)
        self.rsig = saved.rsig.copy()
        self.wsig = saved.wsig.copy()
        self.csts.restore(saved.csts)
        if saved.ot_registers is not None:
            self.ot.restore(saved.ot_registers)

    @property
    def in_transaction(self) -> bool:
        return self.current is not None
