"""Runtime invariant checking for the FlexTM protocol.

FlexTM's correctness argument rests on distributed state staying
mutually consistent; this module actively asserts it.  The checker is
opt-in and wired like the tracer — ``machine.invariants`` is ``None``
by default and every hook site guards on that, so a run without a
checker pays one attribute read.

Checked invariants:

**CST set-time symmetry** (inline, on every conflicting response):
when a transactional access receives a Threatened / Exposed-Read
response, the requestor-side and responder-side CST bits must name each
other — Figure 1's symmetric update.  Checked at set time because the
steady state is legitimately asymmetric (eager management clears
requestor bits after resolution; commit clears responder bits).
Summary-signature conflicts are excluded: a suspended enemy's CSTs live
in its saved descriptor, not in any core's registers.

**TSW state-machine legality** (inline, on every TSW write): a status
word only moves along INVALID/COMMITTED/ABORTED -> ACTIVE ->
COMMITTED/ABORTED (COMMITTING is a transient of CAS-Commit).

**Coherence single-writer rule** (periodic sweep): at most one
processor holds a line in a plain exclusive state (M/E), and plain
exclusivity excludes remote S copies.  TMI/TI are exempt — multiple TMI
owners are exactly the FlexTM extension — and M+TMI / S+TMI mixes are
reachable by design (TMI owners retain their speculative copies across
remote GETX/GETS).

**Owner listing** (periodic sweep): any processor caching M/E/TMI must
be listed as an owner at the directory.  (The converse is not an
invariant: directory lists are conservative over-approximations.)

**Idle hygiene** (periodic sweep): a processor with no running
transaction has clean signatures, CSTs, and overlay.

**Flash index** (periodic sweep): each L1 array's and victim buffer's
T-state index names exactly the lines held in TMI/TI.  A flash visits
only the indexed lines, so a line missing from the index would keep its
T bit across a commit or abort.

**Irrevocable mutex** (periodic sweep, only when a degradation
controller is installed): at most one thread holds the irrevocability
token, and while serial mode is active no other registered transaction
is ACTIVE — the mutual-exclusion half of the forward-progress
guarantee (docs/RESILIENCE.md).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.coherence.messages import AccessKind, ResponseKind
from repro.coherence.states import LineState
from repro.core.tsw import TxStatus
from repro.errors import InvariantViolation

#: Legal TSW transitions (old, new).  Same-value rewrites are tolerated
#: (CAS semantics make them no-ops).
_LEGAL_TSW = {
    (TxStatus.INVALID, TxStatus.ACTIVE),
    (TxStatus.COMMITTED, TxStatus.ACTIVE),
    (TxStatus.ABORTED, TxStatus.ACTIVE),
    (TxStatus.ACTIVE, TxStatus.COMMITTED),
    (TxStatus.ACTIVE, TxStatus.ABORTED),
    (TxStatus.ACTIVE, TxStatus.COMMITTING),
    (TxStatus.COMMITTING, TxStatus.COMMITTED),
    (TxStatus.COMMITTING, TxStatus.ABORTED),
}

#: Plain-state severity for per-(line, processor) reduction when a line
#: appears both in the array and a victim buffer.
_SEVERITY = {LineState.M: 3, LineState.E: 2, LineState.S: 1}


class InvariantChecker:
    """Opt-in runtime assertion layer; raises :class:`InvariantViolation`."""

    def __init__(self, check_interval: int = 64, strict: bool = False):
        #: Scheduler steps between periodic machine sweeps.
        self.check_interval = max(1, check_interval)
        #: Strict mode: consumers of descriptor state (the scheduler's
        #: abort delivery) raise a ``wound-attribution`` violation when
        #: a descriptor-carrying thread unwinds with no wound kind,
        #: instead of silently aggregating under ``kind=""``.
        self.strict = strict
        #: Number of periodic sweeps performed (for reports).
        self.sweeps = 0
        #: Number of inline checks performed.
        self.inline_checks = 0

    # -- inline hooks (called from FlexTMMachine) ------------------------------

    def on_access_conflicts(
        self,
        machine,
        requestor: int,
        kind: AccessKind,
        conflicts: List[Tuple[int, ResponseKind]],
    ) -> None:
        """CST symmetry at set time, right after note_request_conflicts."""
        me = machine.processors[requestor].csts
        for responder, response in conflicts:
            self.inline_checks += 1
            other = machine.processors[responder].csts
            if response is ResponseKind.THREATENED and kind is AccessKind.TLOAD:
                ok = me.r_w.test(responder) and other.w_r.test(requestor)
                pair = ("R-W", "W-R")
            elif response is ResponseKind.THREATENED and kind is AccessKind.TSTORE:
                ok = me.w_w.test(responder) and other.w_w.test(requestor)
                pair = ("W-W", "W-W")
            elif response is ResponseKind.EXPOSED_READ and kind is AccessKind.TSTORE:
                ok = me.w_r.test(responder) and other.r_w.test(requestor)
                pair = ("W-R", "R-W")
            else:
                continue
            if not ok:
                raise InvariantViolation(
                    "cst-symmetry",
                    f"proc {requestor} {kind.value} got {response.value} from "
                    f"proc {responder} but the {pair[0]}/{pair[1]} CST pair is "
                    f"not set symmetrically",
                )

    def on_tsw_write(self, address: int, old: int, new: int) -> None:
        """TSW state-machine legality for one registered status word."""
        self.inline_checks += 1
        if old == new:
            return
        try:
            transition = (TxStatus(old), TxStatus(new))
        except ValueError:
            raise InvariantViolation(
                "tsw-legality",
                f"TSW 0x{address:x} written with non-status value "
                f"({old} -> {new})",
            ) from None
        if transition not in _LEGAL_TSW:
            raise InvariantViolation(
                "tsw-legality",
                f"illegal TSW transition {transition[0].name} -> "
                f"{transition[1].name} at 0x{address:x}",
            )

    # -- periodic sweep (called from the scheduler loop) -----------------------

    def check_machine(self, machine) -> None:
        """Full-machine consistency sweep."""
        self.sweeps += 1
        self._check_plain_exclusivity(machine)
        self._check_owner_listing(machine)
        self._check_idle_hygiene(machine)
        self._check_flash_index(machine)
        self._check_irrevocable_mutex(machine)
        self._check_htm_sw_mutex(machine)

    def _plain_states(self, machine):
        """(line -> proc -> strongest plain state) over arrays + victims."""
        lines = {}
        for proc in machine.processors:
            for cache_line in proc.l1.array.valid_lines():
                if cache_line.state in _SEVERITY:
                    holders = lines.setdefault(cache_line.line_address, {})
                    prev = holders.get(proc.proc_id)
                    if prev is None or _SEVERITY[cache_line.state] > _SEVERITY[prev]:
                        holders[proc.proc_id] = cache_line.state
            for address, state in proc.l1.victims._entries.items():
                if state in _SEVERITY:
                    holders = lines.setdefault(address, {})
                    prev = holders.get(proc.proc_id)
                    if prev is None or _SEVERITY[state] > _SEVERITY[prev]:
                        holders[proc.proc_id] = state
        return lines

    def _check_plain_exclusivity(self, machine) -> None:
        for line_address, holders in self._plain_states(machine).items():
            exclusive = [p for p, s in holders.items() if s in (LineState.M, LineState.E)]
            sharers = [p for p, s in holders.items() if s is LineState.S]
            if len(exclusive) > 1:
                raise InvariantViolation(
                    "single-writer",
                    f"line 0x{line_address:x} held exclusively (M/E) by "
                    f"processors {sorted(exclusive)}",
                )
            if exclusive and sharers:
                raise InvariantViolation(
                    "single-writer",
                    f"line 0x{line_address:x} held M/E by proc {exclusive[0]} "
                    f"while shared (S) by processors {sorted(sharers)}",
                )

    def _check_owner_listing(self, machine) -> None:
        directory = machine.directory
        for proc in machine.processors:
            for cache_line in proc.l1.array.valid_lines():
                if cache_line.state not in (LineState.M, LineState.E, LineState.TMI):
                    continue
                entry = directory.peek_entry(cache_line.line_address)
                if entry is None or not entry.is_owner(proc.proc_id):
                    raise InvariantViolation(
                        "owner-listing",
                        f"proc {proc.proc_id} caches 0x{cache_line.line_address:x} "
                        f"in {cache_line.state.name} but is not a directory owner",
                    )

    def _check_idle_hygiene(self, machine) -> None:
        for proc in machine.processors:
            if proc.current is not None:
                continue
            if not proc.csts.is_empty:
                raise InvariantViolation(
                    "idle-hygiene",
                    f"idle proc {proc.proc_id} has CST bits set "
                    f"(r_w={proc.csts.r_w.value:#x}, "
                    f"w_r={proc.csts.w_r.value:#x}, "
                    f"w_w={proc.csts.w_w.value:#x})",
                )
            if proc.overlay:
                raise InvariantViolation(
                    "idle-hygiene",
                    f"idle proc {proc.proc_id} holds {len(proc.overlay)} "
                    f"speculative overlay values",
                )

    def _check_flash_index(self, machine) -> None:
        for proc in machine.processors:
            array = proc.l1.array
            indexed = {line.line_address: line for line in array.transactional_lines()}
            scanned = {line.line_address: line for line in array.valid_lines() if line.t_bit}
            if indexed != scanned:
                raise InvariantViolation(
                    "flash-index",
                    f"proc {proc.proc_id} indexes T-state lines "
                    f"{sorted(map(hex, indexed))} but holds "
                    f"{sorted(map(hex, scanned))}",
                )
            victims = proc.l1.victims
            indexed_victims = sorted(victims._transactional)
            scanned_victims = sorted(
                address
                for address, state in victims._entries.items()
                if state.is_transactional
            )
            if indexed_victims != scanned_victims:
                raise InvariantViolation(
                    "flash-index",
                    f"proc {proc.proc_id} indexes T-state victims "
                    f"{list(map(hex, indexed_victims))} but holds "
                    f"{list(map(hex, scanned_victims))}",
                )

    def _check_irrevocable_mutex(self, machine) -> None:
        resilience = machine.resilience
        if resilience is None:
            return
        holders = resilience.token_holders()
        if len(holders) > 1:
            raise InvariantViolation(
                "irrevocable-mutex",
                f"multiple irrevocability-token holders: {sorted(holders)}",
            )
        if not resilience.serial_active:
            return
        if not holders:
            raise InvariantViolation(
                "irrevocable-mutex",
                "serial-irrevocable mode active with no token holder",
            )
        holder = holders[0]
        for descriptor in machine._descriptors_by_tsw.values():
            if descriptor.thread_id == holder:
                continue
            if machine.read_status(descriptor) is TxStatus.ACTIVE:
                raise InvariantViolation(
                    "irrevocable-mutex",
                    f"thread {descriptor.thread_id} is ACTIVE while thread "
                    f"{holder} runs serial-irrevocably",
                )

    def _check_htm_sw_mutex(self, machine) -> None:
        """HTM/SW mutual exclusion for the best-effort-HTM backend.

        While the fallback lock is held (serial mode), no other attempt
        may be live or committing: the token grant drained every peer,
        so any survivor would be an HTM commit racing the software
        fallback — the torn-write-back hazard the hybrid design exists
        to prevent.
        """
        fallback = machine.htm_fallback
        if fallback is None:
            return
        holders = fallback.token_holders()
        if len(holders) > 1:
            raise InvariantViolation(
                "htm-sw-mutex",
                f"multiple fallback-lock holders: {sorted(holders)}",
            )
        if not fallback.serial_active:
            return
        if not holders:
            raise InvariantViolation(
                "htm-sw-mutex",
                "serial fallback mode active with no lock holder",
            )
        holder = holders[0]
        for thread_id, path, committing, doomed in fallback.active_attempts():
            if thread_id == holder:
                continue
            if committing:
                raise InvariantViolation(
                    "htm-sw-mutex",
                    f"thread {thread_id} ({path}) is committing while "
                    f"thread {holder} holds the fallback lock",
                )
            if not doomed:
                raise InvariantViolation(
                    "htm-sw-mutex",
                    f"thread {thread_id} ({path}) is live while thread "
                    f"{holder} holds the fallback lock",
                )
