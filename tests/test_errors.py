"""Exception hierarchy contracts."""

import pytest

from repro.errors import (
    ConfigurationError,
    IllegalOperation,
    OverflowTableError,
    ProtocolError,
    ReproError,
    SchedulerError,
    TransactionAborted,
    TransactionError,
    WatchpointError,
)


def test_everything_derives_from_repro_error():
    for error_type in (
        ConfigurationError,
        ProtocolError,
        TransactionError,
        TransactionAborted,
        IllegalOperation,
        OverflowTableError,
        SchedulerError,
        WatchpointError,
    ):
        assert issubclass(error_type, ReproError)


def test_transaction_aborted_carries_context():
    error = TransactionAborted("wounded", by=3)
    assert error.reason == "wounded"
    assert error.by == 3
    assert issubclass(TransactionAborted, TransactionError)


def test_transaction_aborted_defaults():
    error = TransactionAborted()
    assert error.by == -1
    assert error.conflict == ""
    assert error.reason == "aborted"


def test_catching_base_catches_all():
    with pytest.raises(ReproError):
        raise TransactionAborted("x")
