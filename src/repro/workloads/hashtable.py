"""HashTable (WS1): 256 buckets with overflow chains, keys 0..255.

Transactions look up, insert, or delete a uniformly random value with
equal probability.  Conflicts are rare (different buckets live on
different lines), so the workload scales nearly linearly — the paper's
"embarrassingly concurrent" case.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.machine import WORD_BYTES
from repro.runtime.txthread import WorkItem
from repro.workloads.base import Workload, word_address

NUM_BUCKETS = 256
KEY_RANGE = 256

# Chain-node field offsets (words).
NODE_KEY = 0
NODE_VALUE = 1
NODE_NEXT = 2
NODE_WORDS = 3

# The same fields' byte offsets from a node's address.
KEY_AT = NODE_KEY * WORD_BYTES
VALUE_AT = NODE_VALUE * WORD_BYTES
NEXT_AT = NODE_NEXT * WORD_BYTES


class HashTableWorkload(Workload):
    """Chained hash table over simulated memory."""

    name = "HashTable"

    def _setup(self) -> None:
        # One bucket head per cache line (a padded, scalable layout).
        line = self._line_bytes = self.machine.params.line_bytes
        self.bucket_base = self.machine.allocate(NUM_BUCKETS * line, line_aligned=True)
        # Warm up: insert half the key range untimed.
        for key in range(0, KEY_RANGE, 2):
            node = self._alloc_record(NODE_WORDS)
            head = self._bucket_address(key)
            self._poke(word_address(node, NODE_KEY), key)
            self._poke(word_address(node, NODE_VALUE), key * 10)
            self._poke(word_address(node, NODE_NEXT), self._peek(head))
            self._poke(head, node)

    def _bucket_address(self, key: int) -> int:
        return self.bucket_base + (key % NUM_BUCKETS) * self._line_bytes

    # ------------------------------------------------------------ transactions
    #
    # These add the fields' byte offsets to a node's address and bind
    # ``ctx.read``/``ctx.write`` once: no ``word_address`` call per access.

    def lookup(self, ctx, key: int):
        read = ctx.read
        head = self._bucket_address(key)
        node = yield from read(head)
        while node:
            node_key = yield from read(node + KEY_AT)
            if node_key == key:
                value = yield from read(node + VALUE_AT)
                return value
            node = yield from read(node + NEXT_AT)
        return None

    def insert(self, ctx, key: int, value: int):
        read, write = ctx.read, ctx.write
        head = self._bucket_address(key)
        node = yield from read(head)
        while node:
            node_key = yield from read(node + KEY_AT)
            if node_key == key:
                yield from write(node + VALUE_AT, value)
                return False
            node = yield from read(node + NEXT_AT)
        fresh = self._alloc_record(NODE_WORDS)
        old_head = yield from read(head)
        yield from write(fresh + KEY_AT, key)
        yield from write(fresh + VALUE_AT, value)
        yield from write(fresh + NEXT_AT, old_head)
        yield from write(head, fresh)
        return True

    def delete(self, ctx, key: int):
        read, write = ctx.read, ctx.write
        head = self._bucket_address(key)
        previous = 0
        node = yield from read(head)
        while node:
            node_key = yield from read(node + KEY_AT)
            if node_key == key:
                successor = yield from read(node + NEXT_AT)
                if previous:
                    yield from write(previous + NEXT_AT, successor)
                else:
                    yield from write(head, successor)
                return True
            previous = node
            node = yield from read(node + NEXT_AT)
        return False

    # ----------------------------------------------------------------- stream

    def items(self, thread_id: int) -> Iterator[WorkItem]:
        rng = self.rng.fork(thread_id)

        def make_body():
            key = rng.randint(0, KEY_RANGE - 1)
            operation = rng.randint(0, 2)
            if operation == 0:
                return lambda ctx: self.lookup(ctx, key)
            if operation == 1:
                value = rng.randint(0, 1 << 20)
                return lambda ctx: self.insert(ctx, key, value)
            return lambda ctx: self.delete(ctx, key)

        while True:
            yield WorkItem(make_body())
