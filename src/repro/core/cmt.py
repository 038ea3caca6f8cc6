"""The OS-level Conflict Management Table (Section 5).

Indexed by processor id, the CMT maintains the invariant: *if
transaction T is active and executed on processor P while in the
transaction, T's descriptor appears in P's active list, whether T's
thread is running or suspended.*  Software handlers (and lazy
committers) use the processor ids in their CSTs to find the actual
descriptors to test and abort.

A transaction runs on one processor only: resuming it elsewhere aborts
it (the migration policy of ``FlexTMRuntime.resume``).  So each
descriptor sits in exactly one list, that of its ``last_processor``,
and commit or abort removes it from that list alone.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.descriptor import TransactionDescriptor


class ConflictManagementTable:
    """Per-processor lists of active transaction descriptors."""

    def __init__(self, num_processors: int):
        if num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        self.num_processors = num_processors
        self._lists: List[List[TransactionDescriptor]] = [[] for _ in range(num_processors)]

    def register(self, processor: int, descriptor: TransactionDescriptor) -> None:
        """Add a descriptor to a processor's active list (idempotent).

        A descriptor lives in one list, its ``last_processor``'s:
        registering it on another processor moves it there.  Membership
        is by identity: two transactions whose descriptors happen to
        hold equal fields are still two entries.
        """
        self._check(processor)
        previous = descriptor.last_processor
        if previous != processor and 0 <= previous < self.num_processors:
            self._remove(self._lists[previous], descriptor)
        active = self._lists[processor]
        for entry in active:
            if entry is descriptor:
                break
        else:
            active.append(descriptor)
        descriptor.last_processor = processor

    def unregister(self, descriptor: TransactionDescriptor) -> None:
        """Remove a descriptor from its list (commit/final abort)."""
        previous = descriptor.last_processor
        if 0 <= previous < self.num_processors:
            self._remove(self._lists[previous], descriptor)

    @staticmethod
    def _remove(active: List[TransactionDescriptor], descriptor: TransactionDescriptor) -> None:
        for index, entry in enumerate(active):
            if entry is descriptor:
                del active[index]
                return

    def move(self, descriptor: TransactionDescriptor, new_processor: int) -> None:
        """Re-home a descriptor (reschedule on a different processor)."""
        self.register(new_processor, descriptor)

    def active_on(self, processor: int) -> List[TransactionDescriptor]:
        self._check(processor)
        return list(self._lists[processor])

    def all_descriptors(self) -> Iterator[TransactionDescriptor]:
        seen = set()
        for active in self._lists:
            for descriptor in active:
                if id(descriptor) not in seen:
                    seen.add(id(descriptor))
                    yield descriptor

    def _check(self, processor: int) -> None:
        if not 0 <= processor < self.num_processors:
            raise ValueError(f"processor {processor} out of range")

    def __len__(self) -> int:
        return sum(1 for _ in self.all_descriptors())
