"""History recording and conflict-serializability checking.

A :class:`HistoryRecorder` is a probe (``machine.attach(probes=...)``):
through the runtime's attempt hooks it logs, for every *committed*
transaction of any backend, the values it read and wrote (keyed by
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
from typing import Dict, List, Tuple

import networkx

from repro.errors import ReproError


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
    """Accumulates committed transactions in commit order.

    A probe: arm it with ``machine.attach(probes=recorder)``.  Each
    attempt keeps its first read of every address it has not yet
    written and the last value it wrote per address; the thread calls
    :meth:`on_commit` in the scheduler step in which the backend's
    commit returns, so tickets follow commit order.
    """

    def __init__(self):
        self.machine = None
        self._ticket = itertools.count(1)
        self.committed: List[CommittedTransaction] = []
        #: Values present before any transaction ran (address -> value).
        self.initial_values: Dict[int, int] = {}
        #: thread id -> (first reads, last writes) of its open attempt.
        self._attempts: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}

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

    # -- the probe surface ---------------------------------------------------

    def attach(self, machine) -> None:
        self.machine = machine

    def on_memory_write(self, address: int, value: int) -> None:
        """Committed state changed (only the opacity probe tracks it)."""

    def on_commit_flash(self, overlay) -> None:
        """A write overlay flashed (only the opacity probe tracks it)."""

    def on_begin(self, thread: int) -> None:
        self._attempts[thread] = ({}, {})

    def on_read(self, thread: int, address: int, value) -> None:
        attempt = self._attempts.get(thread)
        if attempt is None:
            return
        reads, writes = attempt
        # Later reads may see the attempt's own buffered writes.
        if address not in reads and address not in writes:
            reads[address] = value

    def on_write(self, thread: int, address: int, value) -> None:
        attempt = self._attempts.get(thread)
        if attempt is not None:
            attempt[1][address] = value

    def on_commit(self, thread: int) -> None:
        self.commit(thread, *self._attempts.pop(thread, ({}, {})))

    def on_abort(self, thread: int) -> None:
        self._attempts.pop(thread, None)


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
