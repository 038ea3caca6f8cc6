"""Alert-On-Update (Section 3.4).

A program ALoads one or more cache lines; if a marked line is
invalidated (or evicted, losing tracking), the cache controller effects
a call to a user-registered handler.  FlexTM itself needs AOU for a
single line — the transaction status word — which admits the simplified
one-line hardware of Spear et al.; we nevertheless support marking any
number of lines because FlexWatcher (Section 8) and other
non-transactional clients use the general mechanism.

In the simulator the "subroutine call" becomes a pending-alert queue
drained by the runtime at instruction boundaries, which is how a real
in-order core would observe the trap.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional


@dataclasses.dataclass(frozen=True)
class PendingAlert:
    """One undelivered alert: the line that fired and why."""

    line_address: int
    reason: str  # "invalidated" | "evicted" | "signature"


class AlertUnit:
    """Per-processor alert state: marked lines, handler, pending queue."""

    def __init__(self):
        self._handler: Optional[Callable[[PendingAlert], None]] = None
        #: Undelivered alerts, FIFO.  The runtime's per-step abort poll
        #: tests it directly; only :meth:`raise_alert` appends to it.
        self.pending: List[PendingAlert] = []
        self._marked: Dict[int, bool] = {}
        self.alerts_raised = 0
        self.alerts_delivered = 0
        self.alerts_lost = 0
        #: Fault injection (installed by FlexTMMachine.attach).
        self.chaos = None

    # -- configuration ---------------------------------------------------------

    def set_handler(self, handler: Optional[Callable[[PendingAlert], None]]) -> None:
        """Register the user-level handler (the AbortPC of Table 1)."""
        self._handler = handler

    def mark(self, line_address: int) -> None:
        """Record that a line is ALoaded (the L1 also sets its A bit)."""
        self._marked[line_address] = True

    def unmark(self, line_address: int) -> None:
        self._marked.pop(line_address, None)

    def is_marked(self, line_address: int) -> bool:
        return line_address in self._marked

    def clear(self) -> None:
        """Drop marks and pending alerts (transaction boundary)."""
        self._marked.clear()
        self.pending.clear()

    # -- raising / draining ------------------------------------------------------

    def raise_alert(self, line_address: int, reason: str) -> None:
        """Called by the L1 controller when a marked line fires."""
        if line_address not in self._marked and reason not in ("signature", "spurious"):
            return
        if (
            self.chaos is not None
            and self.chaos.enabled
            and reason != "spurious"
            and self.chaos.alert_lost(line_address)
        ):
            # Lost delivery: the trap never reaches the pending queue.
            # The runtime's TSW status poll still notices the abort, so
            # the fault degrades into detection latency.
            self.alerts_lost += 1
            return
        self.alerts_raised += 1
        self.pending.append(PendingAlert(line_address, reason))

    def drain(self) -> List[PendingAlert]:
        """Deliver all pending alerts through the handler, FIFO."""
        delivered: List[PendingAlert] = []
        while self.pending:
            alert = self.pending.pop(0)
            self.alerts_delivered += 1
            delivered.append(alert)
            if self._handler is not None:
                self._handler(alert)
        return delivered
