"""The private L1 cache controller (Figure 1 state machine).

Processor-side behaviour (Load/Store/TLoad/TStore against the six
stable states), remote-request handling with signature-qualified
responses, eviction policy (silent for E/S/TI, write-back for M,
overflow-table spill for TMI), the flash commit/abort sweeps, and the
alert-on-update machinery all live here.  The state machine itself is
the spec's: every next state, request and installed state is a lookup
in :mod:`repro.coherence.tables`, and this module adds the side effects.

TM-specific policy is injected through a small hook object so that the
coherence layer itself stays TM-agnostic — the decoupling the paper
argues for.  The hooks are:

``classify_remote(requestor, req_type, line_address)``
    Run the signature checks of Figure 1's response table and update the
    responder-side CSTs; returns a :class:`ResponseKind` or ``None``
    when neither signature hits.
``holds_overflow(line_address)``
    True when a TMI line for this address lives in the overflow table
    (the L1 must still count as retaining the line).
``spill_tmi(line_address)``
    Move an evicted TMI line into the overflow table; returns the cycle
    cost.
``on_alert(line_address, reason)``
    Deliver an alert-on-update trap (marked line invalidated/evicted).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.coherence.directory import Directory
from repro.coherence.messages import AccessKind, AccessResult, RequestType, ResponseKind
from repro.coherence.states import LineState
from repro.coherence.tables import (
    CLEAN_HITS,
    GRANT_INSTALL,
    LOCAL_DISPATCH,
    LOCAL_NEXT_STATE,
    MISS_REQUESTS,
    REMOTE_NEXT_STATE,
)
from repro.errors import ProtocolError
from repro.memory.cache import CacheArray, CacheLine
from repro.memory.victim import VictimBuffer
from repro.obs.tracer import NULL_TRACER
from repro.params import SystemParams
from repro.sim.stats import Counter, StatsRegistry


#: Module-level members: ``LineState.I`` is a class attribute lookup
#: that costs several times a global's on every forward.
_I = LineState.I
_M = LineState.M
_TMI = LineState.TMI
_E = LineState.E

#: l1_hit_cycles -> access -> state -> the shared result.
_SHARED_CLEAN_HITS: Dict[int, Dict[AccessKind, Dict[LineState, AccessResult]]] = {}


def shared_clean_hits(cycles: int) -> Dict[AccessKind, Dict[LineState, AccessResult]]:
    """The clean-hit results for a hit latency, one set per process.

    Each ``CLEAN_HITS`` cell maps to ``AccessResult(cycles, state,
    hit=True, conflicts=())``.  Every L1 with that latency returns the
    same objects, so callers must not modify them.
    """
    table = _SHARED_CLEAN_HITS.get(cycles)
    if table is None:
        results = {
            state: AccessResult(cycles=cycles, conflicts=(), state=state, hit=True)
            for state in LineState
        }
        table = {
            kind: {state: results[next_state] for state, next_state in row.items()}
            for kind, row in CLEAN_HITS.items()
        }
        _SHARED_CLEAN_HITS[cycles] = table
    return table


class NullL1Hooks:
    """Default hooks: no signatures, no overflow table, no alerts."""

    def classify_remote(self, requestor: int, req_type: RequestType, line_address: int):
        return None

    def holds_overflow(self, line_address: int) -> bool:
        return False

    def spill_tmi(self, line_address: int) -> int:
        raise ProtocolError("TMI eviction without an overflow-table hook")

    def on_alert(self, line_address: int, reason: str) -> None:
        pass


class L1Controller:
    """One processor's private L1 + victim buffer + protocol engine."""

    def __init__(
        self,
        proc_id: int,
        params: SystemParams,
        directory: Directory,
        hooks=None,
        stats: Optional[StatsRegistry] = None,
        tmi_to_victim: bool = False,
    ):
        self.proc_id = proc_id
        self.params = params
        self.directory = directory
        self.hooks = hooks or NullL1Hooks()
        self.stats = stats or StatsRegistry()
        #: Observability hook (installed by FlexTMMachine.attach).
        self.tracer = NULL_TRACER
        #: Fault injection (installed by FlexTMMachine.attach).
        self.chaos = None
        self.array = CacheArray(params.l1.num_sets, params.l1.associativity)
        #: The array's sets and set-index mask, read by the hit path.
        self._sets = self.array._sets
        self._set_mask = self.array.num_sets - 1
        self.victims = VictimBuffer(params.victim_buffer_entries)
        #: E7 knob — route TMI evictions into an unbounded side buffer
        #: instead of the OT (the paper's "ideal" overflow machine).
        #: Only speculative lines get the unbounded treatment; plain
        #: lines keep the normal victim buffer.
        self.tmi_to_victim = tmi_to_victim
        self.tmi_victims = VictimBuffer(None) if tmi_to_victim else None
        #: Cycles accumulated by evictions performed inside an access.
        self._eviction_cycles = 0
        #: access -> its ``l1.access.*`` counter.  The hot counters are
        #: bound here, once; one that never counts is not reported.
        self._access_counters: Dict[AccessKind, Counter] = {
            kind: self.stats.counter(f"l1.access.{kind.value}") for kind in AccessKind
        }
        self._misses = self.stats.counter("l1.misses")
        self._silent_evictions = self.stats.counter("l1.silent_evictions")
        self._remote_flushes = self.stats.counter("l1.remote_flushes")
        self._clean_hits = shared_clean_hits(params.l1_hit_cycles)
        #: The TLoad and TStore rows, read by the machine's fused hit in
        #: ``FlexTMMachine.tload``/``tstore``.
        self._tload_hits = self._clean_hits[AccessKind.TLOAD]
        self._tstore_hits = self._clean_hits[AccessKind.TSTORE]

    # ------------------------------------------------------------------ local

    def access(self, kind: AccessKind, line_address: int) -> AccessResult:
        """Perform one processor memory operation; returns the outcome.

        A clean hit (a ``CLEAN_HITS`` cell, with no eviction cycles
        accrued by this access) returns a shared, read-only result.
        Everything else takes :meth:`_dispatch`, or on a miss bumps
        ``l1.misses`` and takes :meth:`_request`.

        Two kept copies (docs/PROTOCOL.md §7) touch this method: the
        array is probed inline, as ``CacheArray.lookup`` probes it and
        with its LRU tick on a hit, and ``FlexTMMachine.tload``/``tstore``
        answer their own clean hits on an L1 without chaos, as this
        method would, calling it for everything else.
        """
        self._access_counters[kind].value += 1
        self._eviction_cycles = 0
        if self.chaos is not None and self.chaos.enabled and self.chaos.l1_pressure():
            self._chaos_evict(line_address)
        line = self._sets[line_address & self._set_mask].get(line_address)
        if line is not None and line._state is not _I:
            array = self.array
            array._use_tick = line.last_use = array._use_tick + 1
            if not self._eviction_cycles:
                hit = self._clean_hits[kind].get(line._state)
                if hit is not None:
                    if line._state is not hit.state:
                        line.state = hit.state  # the silent E -> M upgrade
                    return hit
            hit = self._dispatch(kind, line)
        else:
            refill = self.victims.extract(line_address)
            if refill is None and self.tmi_victims is not None:
                refill = self.tmi_victims.extract(line_address)
            if refill is not None:
                line = self.install(line_address, refill)
                self.stats.counter("l1.victim_hits").increment()
                hit = self._dispatch(kind, line)
                hit.cycles += 1  # victim-buffer lookup penalty
            else:
                self._misses.value += 1
                hit = self._request(kind, MISS_REQUESTS[kind], line_address)
        hit.cycles += self._eviction_cycles
        self._eviction_cycles = 0
        return hit

    def _dispatch(self, kind: AccessKind, line: CacheLine) -> AccessResult:
        """An access to a present line, as ``LOCAL_DISPATCH`` directs."""
        state = line._state
        outcome = LOCAL_DISPATCH[kind, state]
        if outcome == "request":
            # An upgrade that needs new permissions (GETX / TGETX).
            return self._request(kind, MISS_REQUESTS[kind], line.line_address)
        if outcome == "error":
            raise ProtocolError(f"illegal {kind.value} to a local {state.name} line")
        next_state = LOCAL_NEXT_STATE[kind, state]
        cycles = self.params.l1_hit_cycles
        if next_state is not state:
            if state is _M:
                # Figure 1: M --TStore/Flush--> TMI.  The modified data
                # is written back so later Loads see the latest
                # non-speculative version.  The write-back is *posted*
                # (drains through the write buffer), so the store only
                # pays a couple of cycles, not the L2 round trip.
                self.directory.writeback(self.proc_id, line.line_address)
                line.state = next_state
                self.stats.counter("l1.m_to_tmi_flush").increment()
                cycles += 2
            else:
                line.state = next_state  # the silent E -> M upgrade
        return AccessResult(cycles=cycles, state=next_state, hit=True)

    def _request(self, kind: AccessKind, request: RequestType, line_address: int) -> AccessResult:
        """A miss or an upgrade: ask the directory, install what it grants."""
        outcome = self.directory.request(self.proc_id, request, line_address)
        grant = outcome.grant
        result = AccessResult(
            outcome.cycles + self.params.l1_hit_cycles, outcome.conflicts, grant,
            nacked=outcome.nacked,
        )
        if outcome.nacked:
            return result
        installed = GRANT_INSTALL.get((kind, grant), grant)
        existing = self.array.peek(line_address)
        if installed is _I:
            # Strong isolation: a plain Load that was threatened reads
            # the committed value but leaves the line uncached so that
            # it serializes before the writing transaction.
            if existing is not None and not existing._state.is_transactional:
                self._drop_line(existing)
            result.threatened_uncached = True
            result.state = installed
        elif existing is not None:
            existing.state = installed
        else:
            self.install(line_address, installed)
        return result

    def install(self, line_address: int, state: LineState) -> CacheLine:
        """Place a line, evicting the LRU line of its set if it is full."""
        victim = self.array.choose_victim(line_address)
        if victim is not None:
            self.evict(victim)
        return self.array.install(line_address, state)

    # --------------------------------------------------------------- eviction

    def evict(self, line: CacheLine) -> None:
        """Apply the per-state eviction policy to a chosen victim."""
        state = line._state
        if self.tracer.enabled:
            clock = getattr(self.hooks, "clock", None)
            self.tracer.coherence(
                self.proc_id,
                clock.now if clock is not None else 0,
                "coh_evict",
                line.line_address,
                detail=state.name,
            )
        if line.a_bit:
            # Tracking for an ALoaded line is lost on eviction; alert.
            self.hooks.on_alert(line.line_address, "evicted")
        if state is _TMI:
            if self.tmi_to_victim:
                self.tmi_victims.insert(line.line_address, _TMI)
            else:
                self._eviction_cycles += self.hooks.spill_tmi(line.line_address)
                self.stats.counter("l1.tmi_overflows").increment()
        elif state is _M:
            self._eviction_cycles += self.directory.writeback(self.proc_id, line.line_address)
            self.victims.insert(line.line_address, _E)
        else:
            # Silent eviction of E/S/TI: the directory keeps us listed,
            # so conflict-detecting forwards continue to arrive.
            self.victims.insert(line.line_address, state)
            self._silent_evictions.value += 1
        self.array.remove(line.line_address)

    def _chaos_evict(self, line_address: int) -> None:
        """Cache-pressure fault: evict one other line, policy intact.

        Exercises the TMI-spill and silent-eviction paths under
        adversarial pressure; the victim goes through :meth:`evict`, so
        every state keeps its architected eviction behaviour.
        """
        if self.chaos is None:
            return
        candidates = [
            line
            for line in self.array.valid_lines()
            if line.line_address != line_address
        ]
        if not candidates:
            return
        victim = candidates[self.chaos.pick(len(candidates))]
        self.stats.counter("l1.chaos_evictions").increment()
        self.evict(victim)

    # ----------------------------------------------------------------- remote

    def handle_forwarded(
        self, requestor: int, req_type: RequestType, line_address: int
    ) -> Tuple[Optional[ResponseKind], bool]:
        """Service a request forwarded by the directory.

        Returns ``(response_kind, retained)`` where ``retained`` tells
        the directory whether we still hold a stake in the line.
        """
        kind = self.hooks.classify_remote(requestor, req_type, line_address)
        # REMOTE_NEXT_STATE: TMI lines never yield (the speculative value
        # stays private), exclusive requests invalidate every other
        # state, GETS demotes M/E to S.  One snoop: a line is in the
        # array or in the victim buffer, never both, and ``next_state``
        # is what the transition left behind (I when neither held it).
        # The array is probed as ``CacheArray.peek`` does, LRU untouched
        # (a kept copy: docs/PROTOCOL.md §7).
        line = self._sets[line_address & self._set_mask].get(line_address)
        if line is not None and line._state is not _I:
            state = line._state
            next_state = REMOTE_NEXT_STATE[req_type, state]
            if state is _M:
                self._remote_flushes.value += 1
            if next_state is _I:
                self._drop_line(line)
            elif next_state is not state:
                line.state = next_state
        else:
            state = self.victims.extract(line_address)
            next_state = _I
            if state is not None:
                # Re-inserting in I drops the entry.
                next_state = REMOTE_NEXT_STATE[req_type, state]
                self.victims.insert(line_address, next_state)

        # A responder whose signature matched retains a conflict-
        # detection stake in the line even when its cached copy is gone
        # (invalidated or evicted): the directory must keep it listed so
        # *future* requestors still reach these signatures — the
        # invariant behind Section 4.1's sticky directory information.
        retained = (
            kind is not None
            or next_state is not _I
            or (self.tmi_victims is not None and self.tmi_victims.contains(line_address))
            or self.hooks.holds_overflow(line_address)
        )
        return kind, retained

    def _drop_line(self, line: CacheLine) -> None:
        if line.a_bit:
            self.hooks.on_alert(line.line_address, "invalidated")
        self.array.remove(line.line_address)

    # ------------------------------------------------------------- AOU / PDI

    def aload(self, line_address: int) -> AccessResult:
        """Mark a line for alert-on-update (loads it if necessary)."""
        result = self.access(AccessKind.LOAD, line_address)
        line = self.array.peek(line_address)
        if line is not None:
            line.a_bit = True
        return result

    def arelease(self, line_address: int) -> None:
        """Clear the alert mark."""
        line = self.array.peek(line_address)
        if line is not None:
            line.a_bit = False

    def flash_commit(self) -> int:
        """CAS-Commit success path: TMI -> M, TI -> I (flash-clear T bits).

        Returns the number of T-state lines the flash touched in the
        array: the transaction's cached footprint.
        """
        return self._flash(LineState.after_commit)

    def flash_abort(self) -> int:
        """Abort path: TMI -> I, TI -> I."""
        return self._flash(LineState.after_abort)

    def _flash(self, transform: Callable[[LineState], LineState]) -> int:
        """The flash transforms cover the array and the victim buffers."""
        swept = self.array.flash_transform(transform)
        self.victims.flash_transform(transform)
        if self.tmi_victims is not None:
            # The TMI side buffer drains entirely: on commit its values
            # are globally visible (the line is simply uncached now); on
            # abort they are discarded.
            self.tmi_victims.clear()
        return swept

    def speculative_lines(self):
        """All locally buffered TMI lines (cache + TMI side buffer)."""
        for line in self.array.transactional_lines():
            if line._state is _TMI:
                yield line.line_address
        if self.tmi_victims is not None:
            for address, state in list(self.tmi_victims._entries.items()):
                if state is _TMI:
                    yield address
