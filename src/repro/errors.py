"""Exception hierarchy for the FlexTM reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when system parameters are inconsistent or out of range."""


class ProtocolError(ReproError):
    """Raised when the coherence protocol reaches an illegal state.

    These indicate bugs in protocol logic (or deliberately injected
    faults in tests), never expected runtime conditions.
    """


class InvariantViolation(ProtocolError):
    """Raised by the runtime invariant checker (repro.chaos.invariants).

    Carries which invariant failed plus a human-readable account of the
    offending machine state, so a chaos run that breaks the protocol
    produces a structured diagnosis instead of silent corruption.
    """

    def __init__(self, invariant: str, detail: str):
        super().__init__(f"[{invariant}] {detail}")
        self.invariant = invariant
        self.detail = detail


class TransactionError(ReproError):
    """Base class for transaction-level failures."""


class TransactionAborted(TransactionError):
    """Control-flow signal: the running transaction has been aborted.

    Raised inside a transactional thread when its status word is changed
    to ``ABORTED`` by an enemy (delivered through the alert-on-update
    handler) or when the transaction aborts itself.  The runtime catches
    it and restarts the transaction.
    """

    def __init__(
        self,
        reason: str = "aborted",
        *,
        by: int = -1,
        conflict: str = "",
    ):
        super().__init__(reason)
        self.reason = reason
        #: Processor that wounded the transaction, -1 when unattributed.
        self.by = by
        #: Conflict type that caused the wound ("R-W" / "W-R" / "W-W" /
        #: "SI" / "migration" / "watchdog"), "" when unattributed.
        self.conflict = conflict


class IllegalOperation(TransactionError):
    """Raised when an API call is made in the wrong transaction state."""


class OverflowTableError(ReproError):
    """Raised on misuse of the overflow-table controller."""


class SchedulerError(ReproError):
    """Raised on scheduler misuse (e.g., stepping a finished machine)."""


class WatchpointError(ReproError):
    """Raised on FlexWatcher misconfiguration."""
