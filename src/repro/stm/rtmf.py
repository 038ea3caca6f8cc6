"""RTM-F — hardware-accelerated STM (Shriraman et al., ISCA'07).

RTM-F gave software TM two hardware assists: **AOU** (alerts on remote
modification of metadata, eliminating read-set validation) and **PDI**
(speculative writes buffered in the cache, eliminating copying).  What
it could *not* eliminate is per-access metadata bookkeeping — software
must still segregate data from metadata and touch a header on every
open, which the paper measures at 40–60% of execution time and which
caps RTM-F at roughly half of FlexTM's throughput.

Our model therefore rides on the FlexTM machine mechanisms for
versioning and abort (an accurate stand-in for AOU+PDI) and adds
exactly the bookkeeping RTM-F retains: a shared per-object header
access plus fixed software cycles on every read and write, and a
header update per written object at commit time.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.runtime.contention import ConflictManager
from repro.runtime.flextm import FlexTMRuntime
from repro.stm.base import LockTable, encode_version, version_of

#: Fixed software bookkeeping per open (descriptor lookup, set insert,
#: metadata fixup) — the cost RTM-F could not remove.
META_READ_CYCLES = 6
META_WRITE_CYCLES = 8
#: Commit-time metadata update cost per written object, plus the real
#: header store issued below.
META_COMMIT_CYCLES = 6


class RtmfRuntime(FlexTMRuntime):
    """RTM-F = FlexTM's hardware assists + per-access software metadata."""

    name = "RTM-F"

    def __init__(
        self,
        machine: FlexTMMachine,
        mode: ConflictMode = ConflictMode.EAGER,
        manager: ConflictManager = None,
        num_orecs: int = 1024,
    ):
        super().__init__(machine, mode=mode, manager=manager)
        self.headers = LockTable(machine, num_orecs)

    def thread_state(self) -> List[int]:
        """The headers the current attempt has written."""
        return []

    def begin(self, thread) -> Iterator[Tuple]:
        thread.tm.clear()
        yield from super().begin(thread)
        # RTM-F's BEGIN also initializes the software descriptor's
        # metadata lists (beyond FlexTM's checkpoint).
        yield ("work", 20)

    def read(self, thread, address: int) -> Iterator[Tuple]:
        header = self.headers.orec_address(address)
        yield ("load", header)
        yield ("work", META_READ_CYCLES)
        value = yield from super().read(thread, address)
        return value

    def write(self, thread, address: int, value: int) -> Iterator[Tuple]:
        header = self.headers.orec_address(address)
        written = thread.tm
        if header not in written:
            written.append(header)
            # First write to this object: publish ownership metadata.
            current = yield ("load", header)
            yield ("store", header, current.value)
        yield ("work", META_WRITE_CYCLES)
        yield from super().write(thread, address, value)

    def commit(self, thread) -> Iterator[Tuple]:
        # Commit-time metadata updates for each written object precede
        # the (hardware) commit itself.
        for header in thread.tm:
            current = yield ("load", header)
            yield ("store", header, encode_version(version_of(current.value) + 1))
            yield ("work", META_COMMIT_CYCLES)
        yield from super().commit(thread)
        thread.tm.clear()

    def on_abort(self, thread) -> Iterator[Tuple]:
        thread.tm.clear()
        yield from super().on_abort(thread)
