"""Transactional threads: the retry loop around workload bodies.

A :class:`TxThread` owns one stream of work items produced by a
workload.  Each *transactional* item is a generator function taking a
:class:`~repro.runtime.api.TxContext`; the thread wraps it in
begin/commit and retries on :class:`~repro.errors.TransactionAborted`
(raised by the backend, or built by its ``abort_exception`` and
delivered by the scheduler).  Either way the abort carries its own
attribution.  The retry loop lives in :meth:`TxThread.run` itself, the
one generator the scheduler resumes.
*Non-transactional* items run bare — they are how compute-bound
background work (the Prime workload of Figure 5e/f) and CGL critical
sections express themselves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, Optional, Tuple  # noqa: F401

from repro.errors import TransactionAborted
from repro.obs.events import UNATTRIBUTED_KIND
from repro.obs.tracer import NULL_TRACER
from repro.runtime.api import TMBackend, TxContext


@dataclasses.dataclass
class WorkItem:
    """One unit of thread work.

    Attributes:
        body: generator function; receives a TxContext when
            ``transactional`` else an opaque op emitter (the context is
            still passed for its ``work`` helper, but reads/writes on it
            would be transactional — non-tx bodies should yield raw
            ``("load", ...)`` / ``("store", ...)`` / ``("work", n)`` ops).
        transactional: run under begin/commit with retry when True.
    """

    body: Callable
    transactional: bool = True


class TxThread:
    """One simulated thread; a backend keeps its per-thread state only
    in ``descriptor``, ``nest_depth`` (the FlexTM family) and ``tm``."""

    def __init__(
        self,
        thread_id: int,
        backend: TMBackend,
        items: Iterable[WorkItem],
        yield_on_abort: bool = False,
        abort_work: Optional[Callable] = None,
    ):
        self.thread_id = thread_id
        self.backend = backend
        self._items = iter(items)
        #: Deschedule (yield the CPU) after every abort.
        self.yield_on_abort = yield_on_abort
        #: User-level schedule of Figure 5(e)/(f): after every abort the
        #: thread "yields to compute-intensive work" — a generator
        #: factory (taking the TxContext) run once per abort, counted as
        #: a non-transactional item.
        self.abort_work = abort_work
        #: Processor currently running this thread (set by scheduler).
        self.processor: Optional[int] = None
        #: FlexTM descriptor (created lazily by the backend).
        self.descriptor = None
        self.nest_depth = 0
        #: The backend's per-thread record (``TMBackend.thread_state``).
        self.tm = backend.thread_state()
        self.in_transaction = False
        self.commits = 0
        self.aborts = 0
        self.nontx_items = 0
        #: Abort counts keyed by conflict kind (cause fidelity).
        self.abort_kinds = {}
        #: Saved hardware context while descheduled mid-transaction.
        self.saved_ctx = None

    def run(self) -> Iterator[Tuple]:
        """Master generator: the scheduler drives this one op at a time.

        A transactional item runs in the retry loop below: begin, body
        and commit until an attempt commits; after each abort, the
        backend's cleanup, the hooks, ``abort_work``, ``yield_on_abort``
        and the backoff, then the next attempt.  The loop is inline
        rather than a generator of its own, so a step resumes no
        generator between the thread and the body.
        """
        ctx = TxContext(self.backend, self)
        machine = self.backend.machine
        for item in self._items:
            body = item.body
            if not item.transactional:
                yield from body(ctx)
                self.nontx_items += 1
                continue
            aborts_in_a_row = 0
            incarnation = 0
            while True:
                # The observers, read once per attempt.  Without a machine
                # there are none, so no cycle stamp is taken.
                if machine is None:
                    tracer, probes, resilience, processors = NULL_TRACER, None, None, ()
                else:
                    tracer = machine.tracer
                    probes = machine.probes
                    resilience = machine.resilience
                    processors = machine.processors
                if resilience is not None:
                    # Degradation-ladder admission: spins while another
                    # thread runs irrevocably; acquires the token when this
                    # thread's own rung demands serial mode.
                    yield from resilience.admission(self)
                try:
                    self.in_transaction = True
                    incarnation += 1
                    if tracer.enabled:
                        tracer.tx_begin(
                            self.processor, self.thread_id, self._now(processors),
                            self.backend.name, incarnation,
                        )
                    if probes is not None:
                        probes.on_begin(self.thread_id)
                    if resilience is not None:
                        resilience.on_attempt(self, self._now(processors))
                    yield from self.backend.begin(self)
                    yield from body(ctx)
                    yield from self.backend.commit(self)
                    self.in_transaction = False
                    self.commits += 1
                    if resilience is not None:
                        resilience.on_commit(self, self._now(processors))
                    if tracer.enabled:
                        tracer.tx_commit(self.processor, self.thread_id, self._now(processors))
                    # No yield since the backend's commit returned: a
                    # recorder's tickets follow commit order.
                    if probes is not None:
                        probes.on_commit(self.thread_id)
                    break
                except TransactionAborted as abort:
                    self.in_transaction = False
                    self.aborts += 1
                    aborts_in_a_row += 1
                    conflict = abort.conflict
                    key = conflict or UNATTRIBUTED_KIND
                    self.abort_kinds[key] = self.abort_kinds.get(key, 0) + 1
                    if resilience is not None:
                        resilience.on_abort(self, self._now(processors))
                    yield from self.backend.on_abort(self)
                    if tracer.enabled:
                        tracer.tx_abort(
                            self.processor, self.thread_id, self._now(processors),
                            cause=str(abort) or "aborted",
                            by=abort.by,
                            conflict=conflict,
                        )
                    if probes is not None:
                        probes.on_abort(self.thread_id)
                    if self.abort_work is not None:
                        yield from self.abort_work(ctx)
                        self.nontx_items += 1
                    if self.yield_on_abort:
                        yield ("yield_cpu",)
                    backoff = self.backend.retry_backoff(aborts_in_a_row)
                    if backoff:
                        yield ("work", backoff)
                        if tracer.enabled and self.processor is not None:
                            tracer.stall(self.processor, self._now(processors), backoff)

    def _now(self, processors) -> int:
        """The owning processor's current cycle (0 when descheduled)."""
        if self.processor is None:
            return 0
        return processors[self.processor].clock._now

    def __repr__(self) -> str:
        return (
            f"TxThread(id={self.thread_id}, commits={self.commits}, "
            f"aborts={self.aborts})"
        )
