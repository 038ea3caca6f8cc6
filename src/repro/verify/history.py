"""History recording and conflict-serializability checking.

The :class:`RecordingBackend` wraps any TM backend and logs, for every
*committed* transaction, the values it read and wrote (keyed by
address) plus a commit ticket.  :func:`check_serializable` then builds
the version order from the recorded writes and verifies that the
history is view-equivalent to a serial order:

* every read must return either the initial value or the value written
  by some committed transaction (no reads out of thin air);
* the reads-from / version-order graph must be acyclic
  (conflict-serializability), checked with networkx.

Aborted attempts never reach the log — the TM's job is precisely to
make them invisible.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterator, List, Optional, Tuple

import networkx

from repro.errors import ReproError
from repro.runtime.api import TMBackend


class SerializabilityViolation(ReproError):
    """The recorded history is not conflict-serializable."""


@dataclasses.dataclass
class CommittedTransaction:
    """One committed transaction's externally visible behaviour."""

    ticket: int
    thread_id: int
    reads: Dict[int, int]
    writes: Dict[int, int]

    @property
    def name(self) -> str:
        return f"T{self.ticket}(thr{self.thread_id})"


class HistoryRecorder:
    """Accumulates committed transactions in commit order."""

    def __init__(self):
        self._ticket = itertools.count(1)
        self.committed: List[CommittedTransaction] = []
        #: Values present before any transaction ran (address -> value).
        self.initial_values: Dict[int, int] = {}

    def note_initial(self, address: int, value: int) -> None:
        self.initial_values.setdefault(address, value)

    def commit(self, thread_id: int, reads: Dict[int, int], writes: Dict[int, int]) -> None:
        self.committed.append(
            CommittedTransaction(
                ticket=next(self._ticket),
                thread_id=thread_id,
                reads=dict(reads),
                writes=dict(writes),
            )
        )


class RecordingBackend(TMBackend):
    """Decorator backend: logs committed read/write sets.

    Wraps the inner backend's generator methods verbatim, shadowing the
    per-attempt read/write observations and flushing them to the
    recorder only when the inner commit returns (i.e., succeeded).
    """

    def __init__(self, inner: TMBackend, recorder: Optional[HistoryRecorder] = None):
        self.inner = inner
        self.recorder = recorder or HistoryRecorder()
        self._attempts: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"Recorded({self.inner.name})"

    @property
    def machine(self):
        """The inner backend's machine (threads discover the tracer,
        chaos, and resilience layers through ``backend.machine``)."""
        return getattr(self.inner, "machine", None)

    def begin(self, thread) -> Iterator[Tuple]:
        self._attempts[thread.thread_id] = ({}, {})
        result = yield from self.inner.begin(thread)
        return result

    def read(self, thread, address: int) -> Iterator[Tuple]:
        value = yield from self.inner.read(thread, address)
        reads, writes = self._attempts[thread.thread_id]
        # Record only the first read of each address (later reads may
        # legitimately see the transaction's own buffered writes).
        if address not in reads and address not in writes:
            reads[address] = value
        return value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        yield from self.inner.write(thread, address, value)
        _, writes = self._attempts[thread.thread_id]
        writes[address] = value

    def commit(self, thread) -> Iterator[Tuple]:
        yield from self.inner.commit(thread)
        reads, writes = self._attempts.pop(thread.thread_id, ({}, {}))
        self.recorder.commit(thread.thread_id, reads, writes)

    def on_abort(self, thread) -> Iterator[Tuple]:
        self._attempts.pop(thread.thread_id, None)
        yield from self.inner.on_abort(thread)

    # Delegate the runtime plumbing.
    def check_aborted(self, thread) -> bool:
        return self.inner.check_aborted(thread)

    def retry_backoff(self, aborts_in_a_row: int) -> int:
        fallback = getattr(self.inner, "retry_backoff", None)
        if fallback is None:
            return min(1 << min(aborts_in_a_row, 8), 256)
        return fallback(aborts_in_a_row)

    def suspend(self, thread):
        return self.inner.suspend(thread)

    def resume(self, thread, processor: int, saved):
        return self.inner.resume(thread, processor, saved)

    def abort_attribution(self, thread):
        hook = getattr(self.inner, "abort_attribution", None)
        return None if hook is None else hook(thread)

    def escalation_counters(self):
        hook = getattr(self.inner, "escalation_counters", None)
        return {} if hook is None else hook()


def seed_cells(machine, recorder: HistoryRecorder, count: int) -> List[int]:
    """Allocate ``count`` line-aligned cells, cell ``i`` holding ``i``.

    Each initial value is noted on ``recorder``, so the checker can
    tell a read of it from a read out of thin air.
    """
    line = machine.params.line_bytes
    cells = [machine.allocate(line, line_aligned=True) for _ in range(count)]
    for index, cell in enumerate(cells):
        machine.memory.write(cell, index)
        recorder.note_initial(cell, index)
    return cells


def replays_serially(
    memory, recorder: HistoryRecorder, witness: List[CommittedTransaction], cells
) -> bool:
    """True when every cell of ``memory`` holds what a serial replay of
    ``witness`` over the recorded initial values leaves there."""
    replay = dict(recorder.initial_values)
    for txn in witness:
        replay.update(txn.writes)
    return all(memory.read(cell) == replay[cell] for cell in cells)


def check_serializable(recorder: HistoryRecorder) -> List[CommittedTransaction]:
    """Verify the recorded history; returns a witness serial order.

    Raises :class:`SerializabilityViolation` with a diagnostic when the
    history cannot be serialized.
    """
    transactions = recorder.committed
    # Map: address -> list of writers in commit-ticket order.
    writers: Dict[int, List[CommittedTransaction]] = {}
    for txn in transactions:
        for address in txn.writes:
            writers.setdefault(address, []).append(txn)

    graph = networkx.DiGraph()
    for txn in transactions:
        graph.add_node(txn.ticket)

    for reader in transactions:
        for address, seen in reader.reads.items():
            source = _find_source(recorder, reader, address, seen, writers)
            if source == "initial":
                # Reader precedes every writer of this address.
                for writer in writers.get(address, []):
                    if writer.ticket != reader.ticket:
                        graph.add_edge(reader.ticket, writer.ticket)
            else:
                graph.add_edge(source.ticket, reader.ticket)
                # Reader precedes the *next* writer after its source.
                chain = writers[address]
                index = chain.index(source)
                if index + 1 < len(chain):
                    nxt = chain[index + 1]
                    if nxt.ticket != reader.ticket:
                        graph.add_edge(reader.ticket, nxt.ticket)
    # Version order follows commit tickets.
    for chain in writers.values():
        for earlier, later in zip(chain, chain[1:]):
            graph.add_edge(earlier.ticket, later.ticket)

    try:
        order = list(networkx.topological_sort(graph))
    except networkx.NetworkXUnfeasible:
        cycle = networkx.find_cycle(graph)
        raise SerializabilityViolation(f"dependency cycle: {cycle}")
    by_ticket = {txn.ticket: txn for txn in transactions}
    return [by_ticket[ticket] for ticket in order if ticket in by_ticket]


def _find_source(recorder, reader, address, seen, writers):
    """Which committed write produced the value this read observed?"""
    candidates = [
        txn
        for txn in writers.get(address, [])
        if txn.writes[address] == seen and txn.ticket != reader.ticket
    ]
    if candidates:
        # Prefer the latest matching writer that committed before the
        # reader; fall back to any matching writer (commit tickets are
        # only an approximation of the true serialization order).
        before = [txn for txn in candidates if txn.ticket < reader.ticket]
        return (before or candidates)[-1]
    if recorder.initial_values.get(address, 0) == seen:
        return "initial"
    raise SerializabilityViolation(
        f"{reader.name} read {seen} at 0x{address:x}, which no committed "
        f"transaction wrote and which is not the initial value"
    )
