"""Typed transactional data structures over simulated memory.

Workload authors shouldn't juggle raw addresses.  These helpers wrap
allocation + field layout and expose generator methods that compose
with :class:`~repro.runtime.api.TxContext` the same way the built-in
workloads do::

    counter = TCounter(machine)
    queue = TQueue(machine, capacity=64)

    def producer(ctx):
        yield from counter.increment(ctx)
        yield from queue.enqueue(ctx, 42)

All structures are padded to cache-line granularity where false sharing
would otherwise distort conflict behaviour — the same layout discipline
the paper's benchmarks use.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.machine import FlexTMMachine, WORD_BYTES


class TVar:
    """A single transactional word on its own cache line."""

    def __init__(self, machine: FlexTMMachine, initial: int = 0):
        self.machine = machine
        self.address = machine.allocate(machine.params.line_bytes, line_aligned=True)
        machine.memory.write(self.address, initial)
        machine.warm_region(self.address, WORD_BYTES)

    def read(self, ctx) -> Iterator[Tuple]:
        value = yield from ctx.read(self.address)
        return value

    def write(self, ctx, value: int) -> Iterator[Tuple]:
        yield from ctx.write(self.address, value)

    def peek(self) -> int:
        """Untimed debug view of the committed value."""
        return self.machine.memory.read(self.address)


class TCounter(TVar):
    """A TVar with read-modify-write helpers."""

    def increment(self, ctx, amount: int = 1) -> Iterator[Tuple]:
        value = yield from ctx.read(self.address)
        yield from ctx.write(self.address, value + amount)
        return value + amount

    def decrement(self, ctx, amount: int = 1) -> Iterator[Tuple]:
        value = yield from self.increment(ctx, -amount)
        return value


class TArray:
    """A fixed-length array of transactional words.

    ``padded=True`` (default) gives each element its own cache line so
    independent elements never conflict; ``padded=False`` packs eight
    words per line, deliberately sharing lines (for false-sharing
    studies).
    """

    def __init__(self, machine: FlexTMMachine, length: int, padded: bool = True):
        if length <= 0:
            raise ValueError("length must be positive")
        self.machine = machine
        self.length = length
        self._stride = machine.params.line_bytes if padded else WORD_BYTES
        self.base = machine.allocate(length * self._stride, line_aligned=True)
        machine.warm_region(self.base, length * self._stride)

    def address_of(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range [0, {self.length})")
        return self.base + index * self._stride

    def get(self, ctx, index: int) -> Iterator[Tuple]:
        value = yield from ctx.read(self.address_of(index))
        return value

    def set(self, ctx, index: int, value: int) -> Iterator[Tuple]:
        yield from ctx.write(self.address_of(index), value)

    def peek(self, index: int) -> int:
        return self.machine.memory.read(self.address_of(index))


class TQueue:
    """A bounded FIFO ring buffer, fully transactional.

    Head/tail counters live on separate lines; slots are padded.
    ``enqueue`` returns False when full, ``dequeue`` returns None when
    empty — non-blocking semantics, so the caller decides whether to
    retry in a later transaction.
    """

    def __init__(self, machine: FlexTMMachine, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.machine = machine
        self.capacity = capacity
        self._head = TVar(machine)  # next index to dequeue
        self._tail = TVar(machine)  # next index to enqueue
        self._slots = TArray(machine, capacity)

    def enqueue(self, ctx, value: int) -> Iterator[Tuple]:
        head = yield from self._head.read(ctx)
        tail = yield from self._tail.read(ctx)
        if tail - head >= self.capacity:
            return False
        yield from self._slots.set(ctx, tail % self.capacity, value)
        yield from self._tail.write(ctx, tail + 1)
        return True

    def dequeue(self, ctx) -> Iterator[Tuple]:
        head = yield from self._head.read(ctx)
        tail = yield from self._tail.read(ctx)
        if head == tail:
            return None
        value = yield from self._slots.get(ctx, head % self.capacity)
        yield from self._head.write(ctx, head + 1)
        return value

    def size(self, ctx) -> Iterator[Tuple]:
        head = yield from self._head.read(ctx)
        tail = yield from self._tail.read(ctx)
        return tail - head

    def peek_size(self) -> int:
        return self._tail.peek() - self._head.peek()


class TStack:
    """A linked-list LIFO with line-aligned nodes.

    Nodes are allocated per push (aborted pushes leak simulator memory,
    like every allocating workload here — see DESIGN.md).
    """

    _VALUE = 0
    _NEXT = 1

    def __init__(self, machine: FlexTMMachine):
        self.machine = machine
        self._top = TVar(machine)

    def push(self, ctx, value: int) -> Iterator[Tuple]:
        node = self.machine.allocate(
            max(2 * WORD_BYTES, self.machine.params.line_bytes), line_aligned=True
        )
        top = yield from self._top.read(ctx)
        yield from ctx.write(node + self._VALUE * WORD_BYTES, value)
        yield from ctx.write(node + self._NEXT * WORD_BYTES, top)
        yield from self._top.write(ctx, node)

    def pop(self, ctx) -> Iterator[Tuple]:
        top = yield from self._top.read(ctx)
        if not top:
            return None
        value = yield from ctx.read(top + self._VALUE * WORD_BYTES)
        successor = yield from ctx.read(top + self._NEXT * WORD_BYTES)
        yield from self._top.write(ctx, successor)
        return value

    def peek_depth(self) -> int:
        """Untimed walk of the committed stack."""
        depth, node = 0, self._top.peek()
        while node and depth < 1_000_000:
            depth += 1
            node = self.machine.memory.read(node + self._NEXT * WORD_BYTES)
        return depth
