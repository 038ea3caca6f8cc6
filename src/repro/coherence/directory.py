"""The shared-L2 directory with multiple-owner support.

An adaptation of the SGI Origin 2000 directory for a CMP: the directory
lives at the L2 tags, tracks sharers as a bit vector, and — the FlexTM
extension — tracks *multiple owners* for TMI lines (processors that
issued TGETX) using the same bit-vector mechanism, pinging all of them
on other requests.

Eviction stickiness: L1s silently evict E/S/TI lines, and an M eviction
updates the L2 copy without changing directory state, so the directory's
lists are conservative over-approximations.  Lists are pruned lazily
when an L1's response indicates the line was dropped *and* is not held
sticky by the summary signatures (Cores Summary rule, Section 5).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.coherence.messages import RequestType, ResponseKind
from repro.coherence.states import LineState
from repro.coherence.tables import GRANT_RULES, otherwise as _otherwise
from repro.errors import ProtocolError
from repro.memory.cache import CacheArray
from repro.obs.tracer import NULL_TRACER
from repro.params import SystemParams
from repro.sim.stats import Counter, StatsRegistry

if TYPE_CHECKING:
    from repro.coherence.l1 import L1Controller
    from repro.sim.clock import CycleClock


#: Grants recorded in the owner vector: the states with Figure 1's M
#: bit set.  Every other grant lists the requestor as a sharer.
_OWNER_GRANTS = (LineState.E, LineState.M, LineState.TMI)
#: Members read per request, bound once: a global read is cheaper than
#: a class-attribute read of a member.
_THREATENED = ResponseKind.THREATENED
_GETS = RequestType.GETS
_I = LineState.I
_E = LineState.E

#: Builds a ``DirectoryOutcome`` with no ``__init__`` frame; ``request``
#: then stores all five slots.
_new_outcome = object.__new__

#: ``coh_request`` detail per (request, grant), and per (request,
#: "NACK") for a NACKed request: built here so that a traced request
#: reads no member's name or value.
_REQUEST_DETAILS: Dict[Tuple[RequestType, object], str] = {
    **{(request, grant): f"{request.value}->{grant.name}"
       for request in RequestType for grant in LineState},
    **{(request, "NACK"): f"{request.value}->NACK" for request in RequestType},
}
#: ``coh_response`` detail per response kind.
_RESPONSE_DETAILS: Dict[ResponseKind, str] = {kind: kind.value for kind in ResponseKind}


@dataclasses.dataclass
class DirectoryEntry:
    """Per-line directory state: two bit vectors over processors."""

    sharers: int = 0
    owners: int = 0

    def add_sharer(self, proc: int) -> None:
        self.sharers |= 1 << proc

    def add_owner(self, proc: int) -> None:
        self.owners |= 1 << proc
        self.sharers &= ~(1 << proc)

    def drop(self, proc: int) -> None:
        mask = ~(1 << proc)
        self.sharers &= mask
        self.owners &= mask

    def demote_owner_to_sharer(self, proc: int) -> None:
        self.owners &= ~(1 << proc)
        self.sharers |= 1 << proc

    def is_owner(self, proc: int) -> bool:
        return bool((self.owners >> proc) & 1)

    def is_sharer(self, proc: int) -> bool:
        return bool((self.sharers >> proc) & 1)

    @property
    def empty(self) -> bool:
        return self.sharers == 0 and self.owners == 0


def set_bits(mask: int) -> List[int]:
    """Indices of the set bits of a processor bit vector, ascending.

    Walks by lowest set bit, so the cost is the number of set bits,
    not the width of the vector.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class DirectoryOutcome:
    """Result of one directory request, consumed by the requesting L1.

    Built only by :meth:`Directory.request`, with ``object.__new__`` and
    a store to every slot (an ``__init__`` would cost a Python frame
    per request):

    * ``cycles`` — the request's latency;
    * ``responses`` — ``(responder, ResponseKind)`` per forwarded holder
      that answered;
    * ``grant`` — the state granted to the requestor (I when NACKed);
    * ``nacked`` — the request was NACKed and granted nothing;
    * ``conflicts`` — the responses that signal a conflict.
    """

    __slots__ = ("cycles", "responses", "grant", "nacked", "conflicts")


class Directory:
    """Shared L2 + directory controller.

    The directory snoops each listed holder through its L1 controller,
    ``l1s[responder].handle_forwarded(requestor, req_type, line)``,
    which answers ``(ResponseKind | None, retained)``.  ``None`` means
    the responder's signatures did not hit.  The machine installs
    ``l1s``.
    """

    def __init__(self, params: SystemParams, stats: Optional[StatsRegistry] = None):
        self.params = params
        self.stats = stats or StatsRegistry()
        self._entries: Dict[int, DirectoryEntry] = {}
        # L2 tag array, used only for latency (state correctness is kept
        # in the persistent entry map; see DESIGN.md §4).
        self._l2_tags = CacheArray(params.l2.num_sets, params.l2.associativity)
        #: processor id -> its L1 controller (installed by the machine).
        self.l1s: List["L1Controller"] = []
        #: request type -> its ``dir.requests.*`` counter.  The hot
        #: counters are bound here, once; one that never counts is not
        #: reported.
        self._request_counters: Dict[RequestType, Counter] = {
            req_type: self.stats.counter(f"dir.requests.{req_type.value}")
            for req_type in RequestType
        }
        self._l2_hits = self.stats.counter("l2.hits")
        self._l2_misses = self.stats.counter("l2.misses")
        # Context-switch hook: (requestor, line, RequestType) ->
        # summary-handler cycles.  The machine attaches it only while a
        # suspended transaction is folded into the summary signatures.
        self.summary_conflict_check: Optional[Callable] = None
        # NACK filter: lines in a committed overflow table mid-copy-back.
        self.nack_check: Optional[Callable] = None
        # Cores-Summary stickiness: a descheduled transaction's
        # processor stays listed (installed by the virtualization layer).
        self.sticky_check: Optional[Callable] = None
        # Observability hook (installed by FlexTMMachine.attach).
        self.tracer = NULL_TRACER
        # Each processor's clock, for event stamps (installed by
        # FlexTMMachine at construction).
        self.clocks: Sequence["CycleClock"] = ()
        # Fault injection (installed by FlexTMMachine.attach).
        self.chaos = None

    def peek_entry(self, line_address: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line_address)

    def warm_line(self, line_address: int) -> None:
        """Untimed L2 fill (workload warm-up phase; no cycles charged)."""
        if self._l2_tags.lookup(line_address) is None:
            victim = self._l2_tags.choose_victim(line_address)
            if victim is not None:
                self._l2_tags.remove(victim.line_address)
            self._l2_tags.install(line_address, LineState.E)

    def _l2_latency(self, line_address: int) -> int:
        """L2 hit latency, plus memory latency on a tag miss."""
        cycles = self.params.l2_hit_cycles
        if self._l2_tags.lookup(line_address) is None:
            cycles += self.params.memory_cycles
            victim = self._l2_tags.choose_victim(line_address)
            if victim is not None:
                self._l2_tags.remove(victim.line_address)
            self._l2_tags.install(line_address, _E)
            self._l2_misses.value += 1
        else:
            self._l2_hits.value += 1
        return cycles

    def request(self, requestor: int, req_type: RequestType, line_address: int) -> DirectoryOutcome:
        """Process one L1 miss/upgrade request end to end.

        Forwards to every listed holder (other than the requestor),
        gathers signature-qualified responses, updates the sharer/owner
        vectors, and returns the state to grant.
        """
        l1s = self.l1s
        if not l1s:
            raise ProtocolError("directory has no L1 controllers installed")
        self._request_counters[req_type].value += 1
        cycles = self._l2_latency(line_address)
        if self.chaos is not None and self.chaos.enabled:
            # Dropped/delayed request messages: the requestor retries
            # after a timeout, so faults surface as extra latency here
            # (never as a spurious NACK — plain loads/stores don't
            # inspect ``nacked``).
            cycles += self.chaos.coherence_extra_cycles(line_address)

        nacked = self.nack_check is not None and self.nack_check(line_address, requestor)
        if nacked:
            # A NACK grants nothing and forwards to no one.
            self.stats.counter("dir.nacks").increment()
            responses: List[Tuple[int, ResponseKind]] = []
            grant = _I
        else:
            entry = self._entries.get(line_address)
            if entry is None:
                entry = self._entries[line_address] = DirectoryEntry()
            if self.summary_conflict_check is not None:
                # Summary signatures are consulted on every L1 miss; the
                # callee traps to the software handler when they hit.
                cycles += self.summary_conflict_check(requestor, line_address, req_type)

            responses = []
            # The holders other than the requestor, walked by lowest set bit
            # (what ``set_bits`` lists), each forward seeing the entry as the
            # earlier ones left it.
            targets = (entry.sharers | entry.owners) & ~(1 << requestor)
            if targets:
                cycles += self.params.remote_l1_cycles
            is_gets = req_type is _GETS
            sticky = self.sticky_check
            pending = targets
            while pending:
                bit = pending & -pending
                pending ^= bit
                responder = bit.bit_length() - 1
                kind, retained = l1s[responder].handle_forwarded(requestor, req_type, line_address)
                if kind is not None:
                    responses.append((responder, kind))
                if not retained and not (sticky is not None and sticky(line_address, responder)):
                    entry.drop(responder)
                elif kind is not None and not retained:
                    # Dropped but sticky: stays listed so future requests
                    # keep reaching this processor's signatures.
                    self.stats.counter("dir.sticky_retained").increment()
                elif is_gets and retained and entry.owners & bit:
                    if kind is not _THREATENED:
                        # M/E owner flushed and dropped to S; TMI owners
                        # (threatened) keep ownership.
                        entry.demote_owner_to_sharer(responder)

            if (
                targets
                and self.chaos is not None
                and self.chaos.enabled
                and self.chaos.duplicate_response(line_address)
            ):
                # Duplicated forwarded message: the first listed responder
                # snoops the same request twice.  The protocol must treat
                # repeated forwards idempotently; the duplicate response is
                # appended so CST updates see it again too.
                responder = (targets & -targets).bit_length() - 1
                kind, _ = l1s[responder].handle_forwarded(requestor, req_type, line_address)
                if kind is not None:
                    responses.append((responder, kind))

            # The first ``GRANT_RULES`` grant whose condition holds, read
            # live (a patched table is obeyed); the unconditional rule is
            # recognised by identity and not called.  A GETS that was
            # threatened grants TI (the L1 decides: TLoads install it, plain
            # Loads stay uncached).  Either way the requestor is recorded as
            # a sharer so future TMI commits can invalidate its copy.
            # E/M/TMI grants make it an owner, plural for TMI; remote copies
            # were already invalidated by the forward loop, and holders that
            # answered with a signature response, hold TMI, or are sticky
            # stay listed so they keep receiving coherence requests.
            for condition, grant in GRANT_RULES[req_type]:
                if condition is _otherwise or condition(entry, responses):
                    break
            if grant in _OWNER_GRANTS:
                entry.owners |= 1 << requestor
                entry.sharers &= ~(1 << requestor)
            else:
                entry.sharers |= 1 << requestor
        if self.tracer.enabled:
            detail = _REQUEST_DETAILS[req_type, "NACK" if nacked else grant]
            self._trace_request(requestor, line_address, detail, responses)
        outcome = _new_outcome(DirectoryOutcome)
        outcome.cycles = cycles
        outcome.responses = responses
        outcome.grant = grant
        outcome.nacked = nacked
        outcome.conflicts = (
            [response for response in responses if response[1].signals_conflict]
            if responses
            else []
        )
        return outcome

    def _trace_request(
        self,
        requestor: int,
        line_address: int,
        detail: str,
        responses: List[Tuple[int, ResponseKind]],
    ) -> None:
        """Emit one ``coh_request`` (``detail`` from ``_REQUEST_DETAILS``)
        plus a ``coh_response`` per response."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        now = self.clocks[requestor]._now
        tracer.coherence(requestor, now, "coh_request", line_address, -1, detail)
        for responder, kind in responses:
            tracer.coherence(
                requestor, now, "coh_response", line_address,
                responder, _RESPONSE_DETAILS[kind],
            )

    # -- write-back / eviction notifications ----------------------------------

    def writeback(self, processor: int, line_address: int) -> int:
        """M-line eviction: update the L2 copy, keep directory state."""
        self.stats.counter("dir.writebacks").increment()
        return self._l2_latency(line_address)

    def owners_of(self, line_address: int) -> List[int]:
        entry = self._entries.get(line_address)
        return set_bits(entry.owners) if entry else []

    def sharers_of(self, line_address: int) -> List[int]:
        entry = self._entries.get(line_address)
        return set_bits(entry.sharers) if entry else []
