"""The transactional programming model.

Workload code is written once against :class:`TxContext` and runs
unchanged on every TM system (FlexTM, RTM-F, RSTM, TL-2, CGL).  Bodies
are *generator functions*: every memory operation is a ``yield from``
into the context, which lets the scheduler interleave simulated threads
at single-operation granularity, deterministically.

A transaction body looks like::

    def deposit(tx, account_addr, amount):
        balance = yield from tx.read(account_addr)
        yield from tx.write(account_addr, balance + amount)

The backend decides what a logical ``read``/``write`` costs: FlexTM
issues one TLoad/TStore; an STM issues the same data access plus its
metadata bookkeeping operations.

The low-level operations that generators ultimately yield are tuples
executed by the scheduler against the machine:

``("tload", addr)`` / ``("tstore", addr, value)``
``("load", addr)`` / ``("store", addr, value)``
``("cas", addr, expected, new)`` / ``("cas_commit",)``
``("aload", addr)`` / ``("work", cycles)``
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import IllegalOperation, TransactionAborted


def work(cycles: int) -> Iterator[Tuple]:
    """Yield a pure-compute op (charged at IPC=1)."""
    yield ("work", cycles)


class TMBackend:
    """Interface every TM system implements.

    All methods are generator functions yielding low-level ops; the
    value a generator *returns* (via ``return``) is the result of the
    logical operation.  ``commit`` must raise
    :class:`~repro.errors.TransactionAborted` when the transaction
    loses; the thread driver handles the retry.
    """

    name = "abstract"
    #: The simulated machine; threads find its observers through it.
    machine = None
    #: The contention manager the watchdog and degradation ladder boost.
    manager = None

    def thread_state(self):
        """A new thread's record, ``thread.tm``; allocates no simulated memory."""
        return None

    def begin(self, thread) -> Iterator[Tuple]:
        raise NotImplementedError
        yield  # pragma: no cover

    def read(self, thread, address: int) -> Iterator[Tuple]:
        raise NotImplementedError
        yield  # pragma: no cover

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        raise NotImplementedError
        yield  # pragma: no cover

    def commit(self, thread) -> Iterator[Tuple]:
        raise NotImplementedError
        yield  # pragma: no cover

    def on_abort(self, thread) -> Iterator[Tuple]:
        """Cleanup after an abort (default: nothing)."""
        return
        yield  # pragma: no cover

    def check_aborted(self, thread) -> bool:
        """Polled by the scheduler between ops; True -> unwind thread."""
        return False

    def suspend(self, thread):
        """Context-switch hook (systems without one need no action)."""
        return None

    def resume(self, thread, processor: int, saved) -> None:
        return None

    def retry_backoff(self, aborts_in_a_row: int) -> int:
        """Cycles to back off before the next attempt."""
        return min(1 << min(aborts_in_a_row, 8), 256)

    def abort_exception(self, thread, cause: str) -> TransactionAborted:
        """The abort the scheduler delivers (poll, or ``resume`` said
        ``"aborted"``), carrying the backend's attribution; by default
        none."""
        return TransactionAborted(cause)

    def escalation_counters(self):
        """Backend-intrinsic escalation counters for the run result."""
        return {}


class TxContext:
    """What a transaction body sees: reads, writes, and scratch compute."""

    def __init__(self, backend: TMBackend, thread):
        self._backend = backend
        self._thread = thread
        #: The machine, for the opt-in probe layer (None when the
        #: backend is not machine-backed, e.g. bare test doubles).
        self._machine = backend.machine

    def read(self, address: int) -> Iterator[Tuple]:
        """Transactional read of one word; returns its value.

        This is the universal observation chokepoint for the opacity
        probes: every backend's logical read returns its value here, so
        an armed ``machine.probes`` sees exactly what the transaction
        saw — including values a zombie reads before its abort lands.
        Unarmed, the backend's own generator is returned, so a read
        costs no wrapping frame.  Probes are armed before a run starts,
        never during it.
        """
        machine = self._machine
        if machine is None or machine.probes is None:
            return self._backend.read(self._thread, address)
        return self._probed_read(address)

    def write(self, address: int, value: int) -> Iterator[Tuple]:
        """Transactional write of one word (unwrapped when unprobed)."""
        machine = self._machine
        if machine is None or machine.probes is None:
            return self._backend.write(self._thread, address, value)
        return self._probed_write(address, value)

    def _probed_read(self, address: int) -> Iterator[Tuple]:
        value = yield from self._backend.read(self._thread, address)
        probes = self._machine.probes
        if probes is not None:
            probes.on_read(self._thread.thread_id, address, value)
        return value

    def _probed_write(self, address: int, value: int) -> Iterator[Tuple]:
        yield from self._backend.write(self._thread, address, value)
        probes = self._machine.probes
        if probes is not None:
            probes.on_write(self._thread.thread_id, address, value)

    def work(self, cycles: int) -> Iterator[Tuple]:
        """Non-memory computation inside the transaction."""
        if cycles < 0:
            raise IllegalOperation("work cycles must be >= 0")
        if cycles:
            yield ("work", cycles)

    # -- transactional pause (Section 3.5) -------------------------------------

    def paused_read(self, address: int) -> Iterator[Tuple]:
        """Ordinary (non-transactional) load inside a transaction.

        The 'special instruction' escape of Section 3.5: bypasses the
        TM backend entirely — no signature update, no buffering, no
        conflict tracking.  Useful for open-nesting-style side effects,
        software metadata, and cheap thread-private reads.
        """
        result = yield ("load", address)
        return result.value

    def paused_write(self, address: int, value: int) -> Iterator[Tuple]:
        """Ordinary store inside a transaction: visible immediately and
        *not* rolled back if the surrounding transaction aborts."""
        yield ("store", address, value)

    @property
    def thread(self):
        return self._thread
