"""Vacation (WS2): travel-reservation system over an in-memory database.

Client threads run tasks against tables (cars, flights, rooms)
implemented as red-black trees — the SPECjbb2000-like workload of the
STAMP suite.  Tasks stream ~a hundred entries out of the database
through tree lookups; read-write tasks then reserve the cheapest
available resource (decrementing availability) and update the customer
record.

Contention modes (Table 3b):

* ``low``  — 90% of relations are in the queried range and read-only
  tasks dominate (90%); scales to ~10x CGL at 16 threads (Figure 4f).
* ``high`` — only 10% of relations are queried (a hot subset) with a
  50-50 read-only/read-write mix; dueling reservations rotate common
  sub-tree nodes and scalability drops (Figure 4g).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.machine import WORD_BYTES
from repro.runtime.txthread import WorkItem
from repro.workloads.base import Workload, word_address
from repro.workloads.rbtree import RedBlackTree

#: Rows per table (cars / flights / rooms).
RELATIONS = 256
#: Resources examined by one task (the "~100 entries" stream comes from
#: lookups x tree depth at this table size).
QUERIES_PER_TASK = 8
NUM_TABLES = 3
NUM_CUSTOMERS = 64

# Resource-record fields (words).
R_TOTAL = 0
R_AVAILABLE = 1
R_PRICE = 2
R_WORDS = 3

# The transactional fields' byte offsets from a record's address.
AVAILABLE_AT = R_AVAILABLE * WORD_BYTES
PRICE_AT = R_PRICE * WORD_BYTES


class VacationWorkload(Workload):
    """The Vacation reservation benchmark."""

    name = "Vacation"

    def __init__(self, machine, seed: int = 0, contention: str = "low"):
        if contention not in ("low", "high"):
            raise ValueError("contention must be 'low' or 'high'")
        self.contention = contention
        super().__init__(machine, seed)
        self.name = f"Vacation-{contention.capitalize()}"

    def _setup(self) -> None:
        machine = self.machine
        warm_rng = self.rng.fork(0x7AC)
        self.tables: List[RedBlackTree] = []
        for _ in range(NUM_TABLES):
            table = RedBlackTree(machine)
            self._seed_table(table, warm_rng)
            self.tables.append(table)
        line = machine.params.line_bytes
        self.customer_base = machine.allocate(NUM_CUSTOMERS * line, line_aligned=True)
        if self.contention == "low":
            self.query_range = int(RELATIONS * 0.9)
            self.read_only_percent = 90
        else:
            self.query_range = max(1, int(RELATIONS * 0.1))
            self.read_only_percent = 50

    def _seed_table(self, table: RedBlackTree, rng) -> None:
        order = list(range(RELATIONS))
        # Balanced-ish insertion: midpoint-recursive order.
        def seed_span(span):
            if not span:
                return
            middle = len(span) // 2
            row = span[middle]
            record = self.machine.allocate(
                max(R_WORDS * 8, self.machine.params.line_bytes), line_aligned=True
            )
            total = rng.randint(100, 500)
            self._poke(word_address(record, R_TOTAL), total)
            self._poke(word_address(record, R_AVAILABLE), total)
            self._poke(word_address(record, R_PRICE), rng.randint(50, 999))
            table.seed_insert(row, record)
            seed_span(span[:middle])
            seed_span(span[middle + 1:])

        seed_span(order)

    # ------------------------------------------------------------ transactions

    #
    # These add the fields' byte offsets to a record's address and bind
    # ``ctx.read``/``ctx.write`` once: no ``word_address`` call per access.

    def browse_task(self, ctx, queries):
        """Read-only: stream entries out of the database."""
        read = ctx.read
        tables = self.tables
        cheapest = None
        for table_index, row in queries:
            record = yield from tables[table_index].lookup(ctx, row)
            if record is None:
                continue
            available = yield from read(record + AVAILABLE_AT)
            price = yield from read(record + PRICE_AT)
            if available > 0 and (cheapest is None or price < cheapest):
                cheapest = price
        return cheapest

    def reserve_task(self, ctx, customer: int, queries):
        """Read-write: find the cheapest available resource and book it."""
        read, write = ctx.read, ctx.write
        tables = self.tables
        best = None
        for table_index, row in queries:
            record = yield from tables[table_index].lookup(ctx, row)
            if record is None:
                continue
            available = yield from read(record + AVAILABLE_AT)
            price = yield from read(record + PRICE_AT)
            if available > 0 and (best is None or price < best[1]):
                best = (record, price)
        if best is None:
            return False
        record, price = best
        available = yield from read(record + AVAILABLE_AT)
        if available <= 0:
            return False
        yield from write(record + AVAILABLE_AT, available - 1)
        customer_address = (
            self.customer_base + customer * self.machine.params.line_bytes
        )
        spent = yield from read(customer_address)
        yield from write(customer_address, spent + price)
        return True

    # ----------------------------------------------------------------- stream

    def items(self, thread_id: int) -> Iterator[WorkItem]:
        rng = self.rng.fork(thread_id)
        while True:
            queries = tuple(
                (rng.randint(0, NUM_TABLES - 1), rng.randint(0, self.query_range - 1))
                for _ in range(QUERIES_PER_TASK)
            )
            if rng.randint(1, 100) <= self.read_only_percent:
                yield WorkItem(lambda ctx, q=queries: self.browse_task(ctx, q))
            else:
                customer = rng.randint(0, NUM_CUSTOMERS - 1)
                yield WorkItem(
                    lambda ctx, c=customer, q=queries: self.reserve_task(ctx, c, q)
                )
