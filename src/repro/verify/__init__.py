"""Offline correctness verification for TM executions.

:mod:`repro.verify.history` records committed transactions' read/write
sets through the machine's probe hook and checks conflict-serializability
of the recorded history — the ground-truth oracle behind the integration
tests that every TM system in this repository must pass.
"""

from repro.verify.history import (
    CommittedTransaction,
    HistoryRecorder,
    SerializabilityViolation,
    check_serializable,
)

__all__ = [
    "CommittedTransaction",
    "HistoryRecorder",
    "SerializabilityViolation",
    "check_serializable",
]
