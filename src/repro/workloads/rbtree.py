"""RBTree (WS1): red-black tree, keys 0..4095, 256-byte nodes.

Transactions insert, delete, or look up uniformly random values.
Searching proceeds top-down while insertion rebalances bottom-up —
the access pattern the paper highlights as the source of RBTree's
read-write sharing, which eager conflict management handles poorly
(Figure 5a).

Deletion uses tombstones: the node is found and marked dead rather
than physically unlinked (a common TM-benchmark simplification that
keeps delete's conflict footprint — a top-down search plus a write —
while bounding the code's complexity; physical structure is still
mutated by inserts, which revive tombstoned keys in place).  The
steady-state key population stays at ~50% of the range as in the paper.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.machine import WORD_BYTES, FlexTMMachine
from repro.runtime.txthread import WorkItem
from repro.workloads.base import Workload, word_address

KEY_RANGE = 4096
#: The paper's node size; fields occupy the first line, the rest pads.
NODE_BYTES = 256

# Field offsets (words).
KEY = 0
VALUE = 1
LEFT = 2
RIGHT = 3
PARENT = 4
COLOR = 5  # 0 = black, 1 = red
DEAD = 6  # tombstone flag

# The same fields' byte offsets from a node's address.
KEY_AT = KEY * WORD_BYTES
VALUE_AT = VALUE * WORD_BYTES
LEFT_AT = LEFT * WORD_BYTES
RIGHT_AT = RIGHT * WORD_BYTES
PARENT_AT = PARENT * WORD_BYTES
COLOR_AT = COLOR * WORD_BYTES
DEAD_AT = DEAD * WORD_BYTES

BLACK = 0
RED = 1
NIL = 0


class RedBlackTree:
    """A red-black tree living in simulated memory.

    All tree operations are generator functions over a TxContext, so
    the same tree code is reused by the RBTree workload and by
    Vacation's in-memory database tables.
    """

    def __init__(self, machine: FlexTMMachine):
        self.machine = machine
        self.root_address = machine.allocate(machine.params.line_bytes, line_aligned=True)

    # -- untimed warm-up ---------------------------------------------------------

    def seed_insert(self, key: int, value: int) -> None:
        """Direct (untimed) insert used during setup; plain BST insert
        followed by an untimed recolor is unnecessary — we insert into a
        balanced position by construction in the workloads, so setup
        just builds an unbalanced BST and blackens every node.  Lookup
        correctness does not depend on balance."""
        memory = self.machine.memory
        fresh = self._alloc_node()
        # Warm-up state: pre-fill L2 tags like the paper's untimed
        # single-thread warm-up phase would have.
        self.machine.warm_region(fresh, NODE_BYTES)
        self.machine.warm_region(self.root_address, 8)
        memory.write(word_address(fresh, KEY), key)
        memory.write(word_address(fresh, VALUE), value)
        memory.write(word_address(fresh, COLOR), BLACK)
        parent, node = NIL, memory.read(self.root_address)
        while node != NIL:
            parent = node
            node_key = memory.read(word_address(node, KEY))
            if key == node_key:
                memory.write(word_address(node, VALUE), value)
                memory.write(word_address(node, DEAD), 0)
                return
            node = memory.read(word_address(node, LEFT if key < node_key else RIGHT))
        memory.write(word_address(fresh, PARENT), parent)
        if parent == NIL:
            memory.write(self.root_address, fresh)
        else:
            parent_key = memory.read(word_address(parent, KEY))
            memory.write(word_address(parent, LEFT if key < parent_key else RIGHT), fresh)

    def _alloc_node(self) -> int:
        return self.machine.allocate(NODE_BYTES, line_aligned=True)

    # -- transactional operations -------------------------------------------------
    #
    # These add the fields' byte offsets to a node's address and bind
    # ``ctx.read``/``ctx.write`` once: no ``word_address`` call per access.

    def lookup(self, ctx, key: int):
        read = ctx.read
        node = yield from read(self.root_address)
        while node != NIL:
            node_key = yield from read(node + KEY_AT)
            if key == node_key:
                dead = yield from read(node + DEAD_AT)
                if dead:
                    return None
                value = yield from read(node + VALUE_AT)
                return value
            node = yield from read(node + (LEFT_AT if key < node_key else RIGHT_AT))
        return None

    def insert(self, ctx, key: int, value: int):
        read, write = ctx.read, ctx.write
        parent = NIL
        node = yield from read(self.root_address)
        while node != NIL:
            node_key = yield from read(node + KEY_AT)
            if key == node_key:
                dead = yield from read(node + DEAD_AT)
                if dead:
                    # Revive the tombstoned key in place.
                    yield from write(node + VALUE_AT, value)
                    yield from write(node + DEAD_AT, 0)
                    return True
                return False  # present already: read-only no-op
            parent = node
            node = yield from read(node + (LEFT_AT if key < node_key else RIGHT_AT))
        fresh = self._alloc_node()
        yield from write(fresh + KEY_AT, key)
        yield from write(fresh + VALUE_AT, value)
        yield from write(fresh + COLOR_AT, RED)
        yield from write(fresh + PARENT_AT, parent)
        if parent == NIL:
            yield from write(self.root_address, fresh)
        else:
            parent_key = yield from read(parent + KEY_AT)
            yield from write(parent + (LEFT_AT if key < parent_key else RIGHT_AT), fresh)
        yield from self._insert_fixup(ctx, fresh)
        return True

    def delete(self, ctx, key: int):
        """Tombstone delete (see module docstring)."""
        read = ctx.read
        node = yield from read(self.root_address)
        while node != NIL:
            node_key = yield from read(node + KEY_AT)
            if key == node_key:
                dead = yield from read(node + DEAD_AT)
                if dead:
                    return False
                yield from ctx.write(node + DEAD_AT, 1)
                return True
            node = yield from read(node + (LEFT_AT if key < node_key else RIGHT_AT))
        return False

    # -- red-black fixup machinery ---------------------------------------------

    def _insert_fixup(self, ctx, node: int):
        """Bottom-up recoloring/rotation after insert (CLRS)."""
        read, write = ctx.read, ctx.write
        while True:
            parent = yield from read(node + PARENT_AT)
            if parent == NIL:
                break
            parent_color = yield from read(parent + COLOR_AT)
            if parent_color == BLACK:
                break
            grandparent = yield from read(parent + PARENT_AT)
            if grandparent == NIL:
                break
            grandparent_left = yield from read(grandparent + LEFT_AT)
            parent_is_left = parent == grandparent_left
            uncle_field = RIGHT_AT if parent_is_left else LEFT_AT
            uncle = yield from read(grandparent + uncle_field)
            uncle_color = BLACK
            if uncle != NIL:
                uncle_color = yield from read(uncle + COLOR_AT)
            if uncle != NIL and uncle_color == RED:
                yield from write(parent + COLOR_AT, BLACK)
                yield from write(uncle + COLOR_AT, BLACK)
                yield from write(grandparent + COLOR_AT, RED)
                node = grandparent
                continue
            inner_field = RIGHT_AT if parent_is_left else LEFT_AT
            inner_child = yield from read(parent + inner_field)
            if node == inner_child:
                yield from self._rotate(ctx, parent, left=parent_is_left)
                node, parent = parent, node
            yield from write(parent + COLOR_AT, BLACK)
            yield from write(grandparent + COLOR_AT, RED)
            yield from self._rotate(ctx, grandparent, left=not parent_is_left)
            break
        root = yield from read(self.root_address)
        if root != NIL:
            root_color = yield from read(root + COLOR_AT)
            if root_color != BLACK:
                yield from write(root + COLOR_AT, BLACK)

    def _rotate(self, ctx, pivot: int, left: bool):
        """Left or right rotation around ``pivot``."""
        read, write = ctx.read, ctx.write
        up_field, down_field = (RIGHT_AT, LEFT_AT) if left else (LEFT_AT, RIGHT_AT)
        riser = yield from read(pivot + up_field)
        if riser == NIL:
            return
        transfer = yield from read(riser + down_field)
        yield from write(pivot + up_field, transfer)
        if transfer != NIL:
            yield from write(transfer + PARENT_AT, pivot)
        pivot_parent = yield from read(pivot + PARENT_AT)
        yield from write(riser + PARENT_AT, pivot_parent)
        if pivot_parent == NIL:
            yield from write(self.root_address, riser)
        else:
            parent_left = yield from read(pivot_parent + LEFT_AT)
            field = LEFT_AT if parent_left == pivot else RIGHT_AT
            yield from write(pivot_parent + field, riser)
        yield from write(riser + down_field, pivot)
        yield from write(pivot + PARENT_AT, riser)


class RBTreeWorkload(Workload):
    """The WS1 RBTree benchmark."""

    name = "RBTree"

    def _setup(self) -> None:
        self.tree = RedBlackTree(self.machine)
        # Steady state: ~2048 of 4096 keys present.  Seed with a
        # balanced insertion order so lookups start at sane depth.
        keys = [key for key in range(0, KEY_RANGE, 2)]
        self._seed_balanced(keys)

    def _seed_balanced(self, keys) -> None:
        if not keys:
            return
        middle = len(keys) // 2
        self.tree.seed_insert(keys[middle], keys[middle] * 10)
        self._seed_balanced(keys[:middle])
        self._seed_balanced(keys[middle + 1:])

    def items(self, thread_id: int) -> Iterator[WorkItem]:
        rng = self.rng.fork(thread_id)

        def make_body():
            key = rng.randint(0, KEY_RANGE - 1)
            operation = rng.randint(0, 2)
            if operation == 0:
                return lambda ctx: self.tree.lookup(ctx, key)
            if operation == 1:
                value = rng.randint(0, 1 << 20)
                return lambda ctx: self.tree.insert(ctx, key, value)
            return lambda ctx: self.tree.delete(ctx, key)

        while True:
            yield WorkItem(make_body())
