"""The FlexTM chip multiprocessor.

Wires the per-core :class:`FlexTMProcessor` objects to the shared
:class:`Directory`, owns the functional memory image and the word-level
speculative overlays, and exposes the instruction-level interface the
runtime drives: ``load``/``store``/``tload``/``tstore``/``cas``/
``cas_commit``/``aload``.

Every operation resolves atomically (see DESIGN.md §4) and returns the
cycle cost for the issuing processor; the runtime's executor advances
that processor's clock, which is what interleaves the simulated threads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.coherence.directory import Directory
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.tables import CST_LABELS, REQUESTER_CST, RESPONDER_CST, RESPONSE_TABLE
from repro.core.descriptor import RunState, TransactionDescriptor
from repro.core.processor import FlexTMProcessor
from repro.core.tsw import TxStatus, decode_status
from repro.errors import ProtocolError
from repro.memory.address import AddressMap
from repro.memory.main_memory import MainMemory
from repro.obs.tracer import NULL_TRACER, Tracer, tee
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.signatures.bloom import Signature
from repro.signatures.summary import SummarySignatures
from repro.sim.stats import StatsRegistry

#: Software-handler trap cost when a summary signature hits (Section 5).
SUMMARY_TRAP_CYCLES = 60
#: Cost per suspended descriptor tested by the software handler.
SUMMARY_DESC_CHECK_CYCLES = 30
#: Word size of the simulated machine (bytes).
WORD_BYTES = 8

# Members read on every access, bound once: a class-attribute read of an
# enum member is a slow path on the interpreters this project supports.
_LOAD = AccessKind.LOAD
_STORE = AccessKind.STORE
_TLOAD = AccessKind.TLOAD
_TSTORE = AccessKind.TSTORE
_ACTIVE = TxStatus.ACTIVE
_COMMITTED = TxStatus.COMMITTED

#: Builds a result with no ``__init__`` frame; the op's success returns
#: then store all five slots.
_new_result = object.__new__

#: The summary handler's findings: a suspended transaction and its answer.
SummaryConflicts = Sequence[Tuple[TransactionDescriptor, ResponseKind]]


def _conflict_category(
    request: RequestType, wsig: Signature, rsig: Signature, line_address: int
) -> Optional[str]:
    """The signature category a request conflicts with, or None.

    Wsig first, as in ``classify_remote``: a Wsig hit answers whatever
    Rsig holds.  The category counts only when its
    :data:`RESPONSE_TABLE` cell signals a conflict.
    """
    if wsig.member(line_address):
        category = "wsig"
    elif rsig.member(line_address):
        category = "rsig_only"
    else:
        return None
    return category if RESPONSE_TABLE[request, category].signals_conflict else None


def _as_responses(suspended: SummaryConflicts) -> List[Tuple[int, ResponseKind]]:
    """Summary conflicts as responses from each transaction's CMT home."""
    return [(descriptor.last_processor, response) for descriptor, response in suspended]


class MemoryOpResult:
    """Value + cycle cost + conflict report for one machine operation.

    ``conflicts`` is a sequence of (responder, ResponseKind) pairs.  An
    empty one comes in two forms: the immutable ``()`` of a clean hit, a
    plain load or a NACK, and the empty list that a miss carries from
    the directory (``DirectoryOutcome.conflicts``) or that the L1's full
    dispatch returns.  Test it for truth, not against ``()``.

    The success returns of ``tload``, ``tstore`` and ``load``, once per
    access, are built with ``object.__new__`` and five slot stores
    rather than through ``__init__``, which costs a Python frame per
    op: kept copies of ``__init__``, listed in docs/PROTOCOL.md §7.
    """

    __slots__ = ("value", "cycles", "conflicts", "nacked", "success")

    def __init__(
        self,
        value: int = 0,
        cycles: int = 0,
        conflicts: Sequence[Tuple[int, ResponseKind]] = (),
        nacked: bool = False,
        success: bool = False,  # CAS outcomes
    ):
        self.value = value
        self.cycles = cycles
        self.conflicts = conflicts
        self.nacked = nacked
        self.success = success

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"MemoryOpResult({fields})"


class FlexTMMachine:
    """A complete simulated CMP with FlexTM extensions."""

    def __init__(
        self,
        params: SystemParams = DEFAULT_PARAMS,
        tmi_to_victim: bool = False,
    ):
        self.params = params
        self.stats = StatsRegistry()
        self.tracer: Tracer = NULL_TRACER
        self.memory = MainMemory()
        #: ``memory.words``, read directly by the load paths.
        self._words = self.memory.words
        self.amap = AddressMap(params.line_bytes)
        #: ``amap.offset_bits``, for the access paths that inline
        #: ``AddressMap.line_of`` (its non-negative check included).
        self._line_shift = self.amap.offset_bits
        self.directory = Directory(params, self.stats)
        self.processors = [
            FlexTMProcessor(p, params, self.directory, stats=self.stats, tmi_to_victim=tmi_to_victim)
            for p in range(params.num_processors)
        ]
        self.summary = SummarySignatures(
            params.signature_bits, params.signature_hashes, params.num_processors
        )
        self.directory.l1s = [proc.l1 for proc in self.processors]
        self.directory.nack_check = self._nack_check
        self.directory.sticky_check = self.summary.sticky_sharer
        # The directory asks the summary handler only while a suspended
        # transaction is folded into the summaries (an empty summary
        # answers no conflict and costs no cycle).
        self.summary.on_change = self._update_summary_hook
        self.directory.clocks = [proc.clock for proc in self.processors]
        #: Processors whose OT is committed, in id order: the only ones
        #: whose copy-back can NACK a request.
        self._copying_back: Tuple[FlexTMProcessor, ...] = ()
        for proc in self.processors:
            proc.ot.on_committed_change = self._update_copying_back
        #: TSW address -> descriptor, for abort routing.
        self._descriptors_by_tsw: Dict[int, TransactionDescriptor] = {}
        #: thread id -> suspended descriptor (summary-handler registry).
        self._suspended: Dict[int, TransactionDescriptor] = {}
        self._pending_summary_conflicts: List[Tuple[TransactionDescriptor, ResponseKind]] = []
        #: Fault injection / invariant checking (opt-in, see :meth:`attach`).
        self.chaos = None
        self.invariants = None
        #: Adaptive-degradation controller (opt-in, see :meth:`attach`).
        self.resilience = None
        #: Best-effort-HTM fallback policy: a behavioural hook that the
        #: htmbe backend assigns so the invariant checker can see the
        #: fallback lock and serial mode through the machine alone.
        #: :meth:`attach` never touches it.
        self.htm_fallback = None
        #: Opacity/zombie probe layer (opt-in, see :meth:`attach`).
        #: Purely observational: armed runs are bit-identical to
        #: unarmed runs.
        self.probes = None
        #: TSW address -> (wounder proc, conflict kind), staged by the
        #: runtime just before an abort CAS so the hardware-level TSW
        #: write can attribute the wound.
        self._staged_wounds: Dict[int, Tuple[int, str]] = {}
        # Bump-pointer allocator over the simulated address space; start
        # past page zero so 0 can serve as a null pointer.
        self._brk = 1 << 16

    # --------------------------------------------------------------- plumbing

    def attach(
        self,
        *,
        tracer: Optional[Tracer] = None,
        metrics=None,
        chaos=None,
        invariants=None,
        resilience=None,
        probes=None,
    ) -> None:
        """Arm exactly the given opt-in layers and turn every other one off.

        ``tracer`` and the ``metrics`` hub are installed as the one
        tracer :func:`~repro.obs.tracer.tee` builds.  The tracer, the
        fault-injection engine and the degradation controller are copied
        into every layer that keeps its own: each processor, its L1,
        alert unit and overflow controller, and the directory.  The
        engine mirrors its injections into :attr:`stats`; the controller
        and the probes learn the machine.  Arm probes before a run
        starts: :meth:`TxContext.read <repro.runtime.api.TxContext.read>`
        decides per access whether to wrap the backend's generator.
        The behavioural :attr:`htm_fallback` hook is never touched.
        """
        self.tracer = tracer = tee(tracer, metrics)
        self.chaos = chaos
        self.invariants = invariants
        self.resilience = resilience
        self.probes = probes
        for proc in self.processors:
            proc.tracer = proc.l1.tracer = tracer
            proc.chaos = proc.l1.chaos = proc.alerts.chaos = proc.ot.chaos = chaos
            proc.resilience = resilience
        self.directory.tracer = tracer
        self.directory.chaos = chaos
        if chaos is not None:
            chaos.stats = self.stats
        if resilience is not None:
            resilience.attach(self)
        if probes is not None:
            probes.attach(self)

    def _update_copying_back(self) -> None:
        self._copying_back = tuple(proc for proc in self.processors if proc.ot.committed)

    def _update_summary_hook(self) -> None:
        """Attach the summary handler exactly while a thread is suspended."""
        self.directory.summary_conflict_check = (
            None if self.summary.is_empty else self._summary_conflict_check
        )

    def _nack_check(self, line_address: int, requestor: int) -> bool:
        """NACK a request that hits a committed OT mid-copy-back (§4.1).

        Only a committed OT can NACK, so only the copy-back list is
        asked; each OT still applies its own window and Osig test.
        """
        if not self._copying_back:
            return False
        now = self.processors[requestor].clock.now
        for proc in self._copying_back:
            if proc.proc_id != requestor and proc.ot.nacks(line_address, now):
                self.stats.counter("ot.nacks").increment()
                return True
        return False

    def _summary_conflict_check(
        self, requestor: int, line_address: int, request: RequestType
    ) -> int:
        """L2-side summary test + software handler (Section 5).

        A descheduled transaction answers as a running one would: the
        :data:`RESPONSE_TABLE` cell of the request and the category its
        saved signatures hit says whether it conflicts, and the
        :data:`RESPONDER_CST` cell names the saved CST that records the
        requestor.  The summary union is asked the same way first, and
        traps only on a conflict.  The directory calls this only while
        the summary is non-empty (see :meth:`_update_summary_hook`).
        """
        summary = self.summary
        if summary.is_empty or _conflict_category(
            request, summary.write_summary, summary.read_summary, line_address
        ) is None:
            return 0
        cycles = SUMMARY_TRAP_CYCLES
        self.stats.counter("summary.traps").increment()
        for thread_id in summary.suspended_threads():
            descriptor = self._suspended.get(thread_id)
            saved = None if descriptor is None else descriptor.saved
            if saved is None:
                continue
            category = _conflict_category(request, saved.wsig, saved.rsig, line_address)
            if category is None:
                continue  # summary false positive
            cycles += SUMMARY_DESC_CHECK_CYCLES
            cst = RESPONDER_CST.get((request, category))
            if cst is not None:
                saved.csts[cst] |= 1 << requestor
            self._pending_summary_conflicts.append(
                (descriptor, RESPONSE_TABLE[request, category])
            )
        return cycles

    def _take_summary_conflicts(self) -> SummaryConflicts:
        """The summary handler's pending conflicts, consumed.

        The list is machine-wide: the next operation that takes it gets
        it, whichever processor issues it (``cas_commit`` never takes
        it).  It is almost always empty, so callers test it first.
        """
        taken, self._pending_summary_conflicts = self._pending_summary_conflicts, []
        return taken

    def _trace_conflicts(
        self,
        proc_id: int,
        now: int,
        kind: AccessKind,
        line: int,
        conflicts: Sequence[Tuple[int, ResponseKind]],
    ) -> None:
        """Emit the CST-setting conflicts of a traced access."""
        if not self.tracer.enabled:
            return
        for responder, response in conflicts:
            cst = REQUESTER_CST.get((kind, response))
            if cst is not None:
                self.tracer.conflict(proc_id, now, responder, CST_LABELS[cst], line)

    # -------------------------------------------------------------- allocator

    def allocate(self, nbytes: int, line_aligned: bool = False) -> int:
        """Carve out simulated memory; returns the base byte address."""
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        align = self.params.line_bytes if line_aligned else WORD_BYTES
        self._brk = (self._brk + align - 1) & ~(align - 1)
        base = self._brk
        self._brk += nbytes
        return base

    def allocate_words(self, nwords: int, line_aligned: bool = False) -> int:
        return self.allocate(nwords * WORD_BYTES, line_aligned)

    def warm_region(self, base: int, nbytes: int) -> None:
        """Pre-fill L2 tags for a region (untimed warm-up, no cycles).

        Used by workload setup and metadata-table construction so that
        measured runs don't charge cold-memory misses the paper's
        untimed warm-up phase would have absorbed.
        """
        for line in self.amap.lines_spanning(base, max(1, nbytes)):
            self.directory.warm_line(line)

    # ------------------------------------------------------------- operations

    def load(self, proc_id: int, address: int) -> MemoryOpResult:
        """Non-transactional load.

        Strong isolation: if the line is threatened, the value read is
        the committed one and the line is left uncached, so the read
        serializes before the writing transaction.
        """
        proc = self.processors[proc_id]
        if address < 0:
            raise ValueError("addresses are non-negative")
        result = proc.l1.access(_LOAD, address >> self._line_shift)
        if self._pending_summary_conflicts:
            self._take_summary_conflicts()  # plain reads don't act on them
        if result.nacked:
            return MemoryOpResult(cycles=result.cycles, nacked=True)
        out = _new_result(MemoryOpResult)
        out.value = self._words.get(address, 0)
        out.cycles = result.cycles
        out.conflicts = ()
        out.nacked = False
        out.success = False
        return out

    def store(self, proc_id: int, address: int, value: int) -> MemoryOpResult:
        """Non-transactional store; aborts conflicting transactions.

        Section 3.5: a GETX that hits a responder's Rsig or Wsig aborts
        the responder, so the write serializes before the (retried)
        transaction.
        """
        proc = self.processors[proc_id]
        if address < 0:
            raise ValueError("addresses are non-negative")
        line = address >> self._line_shift
        result = proc.l1.access(_STORE, line)
        conflicts = result.conflicts
        suspended: SummaryConflicts = ()
        if self._pending_summary_conflicts:
            suspended = self._take_summary_conflicts()
            conflicts = [*conflicts, *_as_responses(suspended)]
        if result.nacked:
            return MemoryOpResult(cycles=result.cycles, nacked=True)
        aborted = (
            self._strong_isolation_aborts(proc_id, result.conflicts, suspended)
            if conflicts
            else ()
        )
        if self.invariants is not None and address in self._descriptors_by_tsw:
            self.invariants.on_tsw_write(address, self.memory.read(address), value)
        self.memory.write(address, value)
        if self.probes is not None:
            self.probes.on_memory_write(address, value)
        out = MemoryOpResult(value, result.cycles, conflicts)
        if aborted:
            self.stats.counter("strong_isolation.aborts").increment(len(aborted))
            if self.tracer.enabled:
                now = proc.clock.now
                for victim in aborted:
                    self.tracer.conflict(proc_id, now, victim, "SI", line)
        return out

    def tload(self, proc_id: int, address: int) -> MemoryOpResult:
        """Transactional load: updates Rsig, may install TI, sets CSTs.

        The OT is asked only when it holds lines: ``ot_refill`` finds
        nothing in an empty table, so the skip changes no cycle.

        On an L1 without chaos, a clean hit is answered here rather than
        in ``L1Controller.access``: the line's state is looked up in the
        L1's ``CLEAN_HITS`` TLoad row, and the hit bumps the same
        ``l1.access.TLoad`` counter, ticks the LRU state, makes the
        cell's state change and takes the cell's shared result, as
        ``access`` does.  Everything else goes through ``access``.  This
        fused hit is a kept copy of ``access``'s; docs/PROTOCOL.md §7
        lists it with the test that binds the two.
        """
        proc = self.processors[proc_id]
        if proc.current is None:
            raise ProtocolError("TLoad outside a transaction")
        if address < 0:
            raise ValueError("addresses are non-negative")
        line = address >> self._line_shift
        refill_cycles = proc.ot_refill(line) if proc.ot.count else 0
        l1 = proc.l1
        cached = None if l1.chaos is not None else l1._sets[line & l1._set_mask].get(line)
        result = None if cached is None else l1._tload_hits.get(cached._state)
        if result is None:
            result = l1.access(_TLOAD, line)
        else:
            l1._access_counters[_TLOAD].value += 1
            array = l1.array
            array._use_tick = cached.last_use = array._use_tick + 1
            if cached._state is not result.state:
                cached.state = result.state
        conflicts = result.conflicts
        if self._pending_summary_conflicts:
            conflicts = [*conflicts, *_as_responses(self._take_summary_conflicts())]
        if result.nacked:
            return MemoryOpResult(cycles=result.cycles + refill_cycles, nacked=True)
        proc.rsig.insert(line)
        if conflicts:
            proc.note_request_conflicts(_TLOAD, conflicts)
        if self.invariants is not None:
            self.invariants.on_access_conflicts(self, proc_id, _TLOAD, result.conflicts)
        proc.current.accesses += 1
        if self.tracer.enabled:
            now = proc.clock._now
            self.tracer.tx_access(proc_id, proc.current.thread_id, now, "read", address)
            if conflicts:
                self._trace_conflicts(proc_id, now, _TLOAD, line, conflicts)
        overlay = proc.overlay
        out = _new_result(MemoryOpResult)
        out.value = overlay[address] if address in overlay else self._words.get(address, 0)
        out.cycles = result.cycles + refill_cycles
        out.conflicts = conflicts
        out.nacked = False
        out.success = False
        return out

    def tstore(self, proc_id: int, address: int, value: int) -> MemoryOpResult:
        """Transactional store: buffers the value (PDI), updates Wsig.

        A clean hit is answered here from the L1's ``CLEAN_HITS`` TStore
        row, as in :meth:`tload`.  The TStore-on-M flush is not a clean
        hit and goes through ``L1Controller.access``.
        """
        proc = self.processors[proc_id]
        if proc.current is None:
            raise ProtocolError("TStore outside a transaction")
        if address < 0:
            raise ValueError("addresses are non-negative")
        line = address >> self._line_shift
        refill_cycles = proc.ot_refill(line) if proc.ot.count else 0
        l1 = proc.l1
        cached = None if l1.chaos is not None else l1._sets[line & l1._set_mask].get(line)
        result = None if cached is None else l1._tstore_hits.get(cached._state)
        if result is None:
            result = l1.access(_TSTORE, line)
        else:
            l1._access_counters[_TSTORE].value += 1
            array = l1.array
            array._use_tick = cached.last_use = array._use_tick + 1
            if cached._state is not result.state:
                cached.state = result.state
        conflicts = result.conflicts
        if self._pending_summary_conflicts:
            conflicts = [*conflicts, *_as_responses(self._take_summary_conflicts())]
        if result.nacked:
            return MemoryOpResult(cycles=result.cycles + refill_cycles, nacked=True)
        proc.wsig.insert(line)
        if conflicts:
            proc.note_request_conflicts(_TSTORE, conflicts)
        if self.invariants is not None:
            self.invariants.on_access_conflicts(self, proc_id, _TSTORE, result.conflicts)
        proc.overlay[address] = value
        proc.current.accesses += 1
        if self.tracer.enabled:
            now = proc.clock._now
            self.tracer.tx_access(proc_id, proc.current.thread_id, now, "write", address)
            if conflicts:
                self._trace_conflicts(proc_id, now, _TSTORE, line, conflicts)
        out = _new_result(MemoryOpResult)
        out.value = value
        out.cycles = result.cycles + refill_cycles
        out.conflicts = conflicts
        out.nacked = False
        out.success = False
        return out

    def cas(self, proc_id: int, address: int, expected: int, new: int) -> MemoryOpResult:
        """Non-transactional compare-and-swap (abort/arbitration tool)."""
        proc = self.processors[proc_id]
        line = self.amap.line_of(address)
        result = proc.l1.access(_STORE, line)
        conflicts = result.conflicts
        suspended: SummaryConflicts = ()
        if self._pending_summary_conflicts:
            suspended = self._take_summary_conflicts()
            conflicts = [*conflicts, *_as_responses(suspended)]
        if result.nacked:
            return MemoryOpResult(cycles=result.cycles, nacked=True)
        self._strong_isolation_aborts(proc_id, result.conflicts, suspended)
        old = self.memory.read(address)
        out = MemoryOpResult(value=old, cycles=result.cycles, conflicts=conflicts)
        if old == expected:
            if (
                self.resilience is not None
                and new == TxStatus.ABORTED
                and self.resilience.deflects(address)
            ):
                # Serial-irrevocable holder: abort writes bounce off its
                # TSW (forward-progress guarantee).  success stays False.
                self._staged_wounds.pop(address, None)
                self.resilience.note_deflected()
                return out
            if self.invariants is not None and address in self._descriptors_by_tsw:
                self.invariants.on_tsw_write(address, old, new)
            self.memory.write(address, new)
            if self.probes is not None:
                self.probes.on_memory_write(address, new)
            out.success = True
            self._on_tsw_write(address, new, by=proc_id)
        else:
            # A wound staged for this CAS is stale once the CAS fails.
            self._staged_wounds.pop(address, None)
        return out

    def cas_commit(self, proc_id: int) -> MemoryOpResult:
        """The CAS-Commit instruction on the local transaction's TSW.

        Success requires the TSW to still read ACTIVE *and* W-R | W-W to
        be zero.  On success the controller flash-commits TMI/TI state,
        makes the speculative values visible, and kicks off the OT
        copy-back.  On a value mismatch (we were aborted) the controller
        flash-aborts.  On a CST mismatch nothing changes — the Commit()
        routine loops (Figure 3, line 5).
        """
        proc = self.processors[proc_id]
        descriptor = proc.current
        if descriptor is None:
            raise ProtocolError("CAS-Commit with no running transaction")
        tsw = descriptor.tsw_address
        access = proc.l1.access(_STORE, tsw >> self._line_shift)
        words = self._words
        old = words.get(tsw, 0)
        out = MemoryOpResult(old, access.cycles)
        if old != _ACTIVE:
            proc.flash_abort()
            self.stats.counter("commit.cas_lost_race").increment()
            return out
        csts = proc.csts
        if csts.w_r._bits | csts.w_w._bits:
            self.stats.counter("commit.cas_cst_fail").increment()
            return out
        if self.invariants is not None:
            self.invariants.on_tsw_write(tsw, old, int(_COMMITTED))
        words[tsw] = _COMMITTED
        # Flash commit: speculative values become globally visible in
        # the same atomic step the TSW changes, written in overlay order.
        words.update(proc.overlay)
        if self.probes is not None:
            self.probes.on_commit_flash(proc.overlay)
        proc.flash_commit(proc.clock.now + out.cycles)
        out.success = True
        return out

    def aload(self, proc_id: int, address: int) -> MemoryOpResult:
        """ALoad: read a line and mark it for alert-on-update."""
        proc = self.processors[proc_id]
        if address < 0:
            raise ValueError("addresses are non-negative")
        line = address >> self._line_shift
        result = proc.l1.aload(line)
        if self._pending_summary_conflicts:
            self._take_summary_conflicts()
        proc.alerts.mark(line)
        return MemoryOpResult(self._words.get(address, 0), result.cycles)

    # ----------------------------------------------------------- abort routing

    def register_descriptor(self, descriptor: TransactionDescriptor) -> None:
        self._descriptors_by_tsw[descriptor.tsw_address] = descriptor

    def unregister_descriptor(self, descriptor: TransactionDescriptor) -> None:
        self._descriptors_by_tsw.pop(descriptor.tsw_address, None)

    def register_suspended(self, descriptor: TransactionDescriptor) -> None:
        self._suspended[descriptor.thread_id] = descriptor

    def unregister_suspended(self, thread_id: int) -> None:
        self._suspended.pop(thread_id, None)

    def stage_wound(self, tsw_address: int, by: int, kind: str) -> None:
        """Pre-register who/why for an imminent abort CAS on a TSW.

        The runtime knows the conflict kind; the hardware TSW write is
        where the abort actually lands.  Staging bridges the two so
        :class:`~repro.errors.TransactionAborted` can carry full cause
        fidelity.  A stale stage (failed CAS) is discarded.
        """
        self._staged_wounds[tsw_address] = (by, kind)

    def force_abort(self, descriptor: TransactionDescriptor, by: int = -1, kind: str = "") -> bool:
        """OS-initiated abort (watchdog, migration): CAS ACTIVE->ABORTED.

        Returns True when the abort landed; False when the transaction
        already resolved (committed or aborted) first.
        """
        if self.memory.read(descriptor.tsw_address) != TxStatus.ACTIVE:
            return False
        if self.resilience is not None and self.resilience.deflects(descriptor.tsw_address):
            self.resilience.note_deflected()
            return False
        if self.invariants is not None:
            self.invariants.on_tsw_write(
                descriptor.tsw_address, int(TxStatus.ACTIVE), int(TxStatus.ABORTED)
            )
        self.stage_wound(descriptor.tsw_address, by, kind)
        self.memory.write(descriptor.tsw_address, TxStatus.ABORTED)
        self._on_tsw_write(descriptor.tsw_address, TxStatus.ABORTED)
        return True

    def _on_tsw_write(self, address: int, new_value: int, by: int = -1) -> None:
        """Hardware side-effects of a successful write to some TSW."""
        staged = self._staged_wounds.pop(address, None)
        if new_value != TxStatus.ABORTED:
            return
        descriptor = self._descriptors_by_tsw.get(address)
        if descriptor is None:
            return
        kind = ""
        if staged is not None:
            by, kind = staged
        descriptor.aborts += 1
        descriptor.wounded_by = by
        descriptor.wound_kind = kind
        if 0 <= by < len(self.processors):
            wounder = self.processors[by].current
            if wounder is not None and wounder is not descriptor:
                wounder.wounds_inflicted += 1
        if descriptor.run_state is RunState.RUNNING and descriptor.last_processor >= 0:
            victim = self.processors[descriptor.last_processor]
            if victim.current is descriptor:
                # The victim's hardware reverts its speculative lines;
                # the AOU alert (raised by the TSW-line invalidation the
                # GETX already performed) tells the software to unwind.
                victim.flash_abort()

    def _strong_isolation_aborts(
        self,
        requestor: int,
        responses: Sequence[Tuple[int, ResponseKind]],
        suspended: SummaryConflicts,
    ) -> List[int]:
        """Abort every transaction conflicting with a non-tx write.

        ``responses`` come from running transactions, each aborted on
        its core; ``suspended`` are the summary handler's findings,
        each aborted through its own descriptor.  Returns the aborted
        transactions' processors.
        """
        if self.processors[requestor].in_transaction:
            # The Commit()/manager CAS traffic of a transaction is not a
            # 'non-transactional writer' in the Section 3.5 sense; those
            # conflicts are CST-managed instead.
            return []
        aborted = []
        for responder, _ in responses:
            descriptor = self.processors[responder].current
            if descriptor is not None and self.force_abort(descriptor, by=requestor, kind="SI"):
                aborted.append(responder)
        for descriptor, _ in suspended:
            if self.force_abort(descriptor, by=requestor, kind="SI"):
                aborted.append(descriptor.last_processor)
        return aborted

    # ------------------------------------------------------------------ values

    def read_status(self, descriptor: TransactionDescriptor) -> TxStatus:
        """Debug/OS view of a TSW (no cache traffic)."""
        return decode_status(self.memory.read(descriptor.tsw_address))

    def max_cycle(self) -> int:
        return max(proc.clock.now for proc in self.processors)
