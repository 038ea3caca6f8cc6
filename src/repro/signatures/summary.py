"""Summary signatures at the directory (Section 5).

When the OS deschedules a thread mid-transaction it unions the thread's
``Rsig``/``Wsig`` into process-wide summary signatures (``RSsig`` and
``WSsig``) installed at the L2 directory, and records the processor the
transaction last ran on in the *Cores Summary* bitmap.  The L2 consults
the summaries on every L1 miss; a hit traps to a software handler that
checks the per-thread saved signatures (through the Conflict Management
Table) and updates the suspended transactions' CSTs.  The handler
(``FlexTMMachine._summary_conflict_check``) asks the protocol tables
which hit is a conflict; this class only holds the signatures.

Unlike LogTM-SE, the summaries sit at the directory — off the L1 hit
path — because FlexTM flushes all speculative state from the cache when
descheduling, so the first conflicting access after a switch is
guaranteed to miss.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.signatures.bloom import Signature


class SummarySignatures:
    """RSsig/WSsig plus the Cores Summary register at the directory."""

    def __init__(self, signature_bits: int = 2048, num_hashes: int = 4, num_processors: int = 16):
        self._bits = signature_bits
        self._hashes = num_hashes
        self._num_processors = num_processors
        self.read_summary = Signature(signature_bits, num_hashes)
        self.write_summary = Signature(signature_bits, num_hashes)
        self._cores_summary = 0
        # The OS recomputes summaries from scratch on reschedule, so we
        # keep the contributing per-thread signatures keyed by thread id.
        self._contributions: Dict[int, tuple] = {}
        #: Called after every :meth:`install` and :meth:`remove` (the
        #: machine attaches the directory's summary hook only while a
        #: thread is suspended).
        self.on_change: Optional[Callable[[], None]] = None

    # -- OS-side maintenance ---------------------------------------------------

    def install(self, thread_id: int, rsig: Signature, wsig: Signature, last_processor: int) -> None:
        """Union a descheduled transaction's signatures into the summaries."""
        if not 0 <= last_processor < self._num_processors:
            raise ValueError(f"processor {last_processor} out of range")
        self._contributions[thread_id] = (rsig.copy(), wsig.copy(), last_processor)
        self._rebuild()
        if self.on_change is not None:
            self.on_change()

    def remove(self, thread_id: int) -> None:
        """Drop a thread's contribution (it was rescheduled or finished).

        Summaries are recomputed from the remaining suspended threads,
        mirroring the OS routine the paper describes for reschedule.
        """
        self._contributions.pop(thread_id, None)
        self._rebuild()
        if self.on_change is not None:
            self.on_change()

    def _rebuild(self) -> None:
        self.read_summary = Signature(self._bits, self._hashes)
        self.write_summary = Signature(self._bits, self._hashes)
        self._cores_summary = 0
        for rsig, wsig, processor in self._contributions.values():
            self.read_summary.union(rsig)
            self.write_summary.union(wsig)
            self._cores_summary |= 1 << processor

    # -- directory-side queries ------------------------------------------------

    def hits_read_summary(self, line_address: int) -> bool:
        """Does the line hit RSsig (some suspended reader)?"""
        return self.read_summary.member(line_address)

    def hits_write_summary(self, line_address: int) -> bool:
        """Does the line hit WSsig (some suspended writer)?"""
        return self.write_summary.member(line_address)

    def suspended_threads(self) -> List[int]:
        """Thread ids currently folded into the summaries."""
        return sorted(self._contributions)

    def core_in_summary(self, processor: int) -> bool:
        """Cores Summary test: does a descheduled transaction last-ran here?

        The directory refrains from pruning such a processor from a
        sharer list when the line hits RSsig/WSsig, so the L1 keeps
        receiving the coherence traffic the thread will need when it is
        swapped back in.
        """
        return bool((self._cores_summary >> processor) & 1)

    def sticky_sharer(self, line_address: int, processor: int) -> bool:
        """Combined rule used by the directory on sharer-list pruning."""
        if not self.core_in_summary(processor):
            return False
        return self.hits_read_summary(line_address) or self.hits_write_summary(line_address)

    @property
    def is_empty(self) -> bool:
        return not self._contributions
