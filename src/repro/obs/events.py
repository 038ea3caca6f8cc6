"""Central registry of every tracer event kind and every wound kind.

The tracer's event taxonomy used to live only in the
:mod:`repro.obs.tracer` docstring, which meant a typo'd event name at an
emit site (``"coh_evcit"``) or an undocumented new kind would sail
through review and only surface when a trace consumer silently matched
nothing.  This module is the single source of truth:

* every ``kind`` an :class:`~repro.obs.tracer.EventTracer` can record
  appears here with a one-line description;
* the ``simcheck`` static pass (rule ``SIM-E201``) resolves the literal
  event-name argument at every emit site — applying the per-method
  prefixes in :data:`EMIT_PREFIXES` — and fails the build when the
  resolved kind is missing from :data:`EVENT_REGISTRY`;
* rule ``SIM-E202`` reports registry entries that no emit site produces
  any more (dead taxonomy), so the registry cannot rot in the other
  direction either;
* docs and tests import :data:`EVENT_KINDS` instead of copying the
  table.

Adding an event kind is therefore a two-line change: emit it, and
register it here (``docs/OBSERVABILITY.md`` is generated prose; the
registry is the contract).

The abort taxonomy lives here too: :data:`WOUND_KIND_REGISTRY` names
every kind a wound may be staged with, under the same two rules
(``SIM-E203`` unregistered, ``SIM-E204`` dead), and
:data:`UNATTRIBUTED_KIND` is the bucket of an abort that carries none.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping

#: kind -> one-line description.  Grouped to mirror the tracer API.
EVENT_REGISTRY: Dict[str, str] = {
    # -- transaction lifecycle (Tracer.tx_begin/tx_commit/tx_abort/tx_access)
    "tx_begin": "transaction attempt starts (thread, backend, incarnation)",
    "tx_commit": "attempt committed",
    "tx_abort": "attempt aborted (cause + wounding processor + CST kind)",
    "tx_read": "sampled transactional load",
    "tx_write": "sampled transactional store",
    # -- conflicts and alerts (Tracer.conflict/aou_alert/stall)
    "conflict_detected": "a CST-setting response (R-W / W-R / W-W / SI)",
    "aou_alert": "alert-on-update delivery (line + reason)",
    "conflict_stall": "cycles spent waiting on an enemy (duration)",
    # -- overflow machinery (Tracer.overflow)
    "overflow_spill": "TMI eviction walked into the overflow table",
    "overflow_walk": "OT refill walk on an L1 miss",
    "overflow_copyback": "post-commit OT drain (controller-overlapped)",
    # -- scheduling (Tracer.sched)
    "preempt": "scheduler took the core away at quantum expiry",
    "yield": "thread voluntarily gave the core up",
    "dispatch": "thread installed on a core",
    "retire": "thread finished for good",
    # -- coherence (Tracer.coherence)
    "coh_request": "directory request (type, line, grant, nack)",
    "coh_response": "signature-qualified forwarded response",
    "coh_evict": "L1 eviction (victimized line + state)",
    # -- liveness watchdog (Tracer.watchdog)
    "watchdog_escalate": "no-commit window escalated the watchdog level",
    "watchdog_backoff_boost": "watchdog widened contention-manager backoff",
    "watchdog_forced_abort": "watchdog force-aborted the most prolific wounder",
    "watchdog_recover": "commits resumed; watchdog ladder reset",
    # -- degradation ladder (Tracer.degrade)
    "degrade_escalate": "abort streak moved a thread up the resilience ladder",
    "degrade_policy_flip": "lazy->eager conflict-resolution flip (EAGER rung)",
    "degrade_rotate": "signature hash-family rotation under Bloom pressure",
    "degrade_irrevocable_grant": "serial-irrevocable token granted to a thread",
    "degrade_irrevocable_drain": "in-flight peer force-aborted during a grant",
    "degrade_irrevocable_release": "serial-irrevocable token released",
    "degrade_recover": "streak cleared; thread returned to the HEALTHY rung",
    # -- metrics hub (Tracer.metrics)
    "metrics_sample": "periodic pressure sample (sig fill/FP, OT, CST density)",
}

#: Every registered kind, for membership tests and docs/tests.
EVENT_KINDS: FrozenSet[str] = frozenset(EVENT_REGISTRY)

#: Central registry of wound/abort-cause kinds.  Every ``kind`` string
#: that reaches :meth:`~repro.core.machine.FlexTMMachine.stage_wound`
#: or :meth:`~repro.core.machine.FlexTMMachine.force_abort` — and
#: therefore every key of ``RunResult.aborts_by_kind`` except the
#: :data:`UNATTRIBUTED_KIND` fallback — must appear here.  The simcheck
#: rule ``SIM-E203`` resolves the literal kind argument at every emit
#: site and fails the build on an unregistered string, the contract
#: ``SIM-E201`` enforces for the event kinds above.
WOUND_KIND_REGISTRY: Dict[str, str] = {
    # -- CST conflict kinds (Figure 1's conflict taxonomy).
    "R-W": "requestor's read hit an enemy's write signature",
    "W-R": "requestor's write hit an enemy's exposed read",
    "W-W": "requestor's write hit an enemy's write signature",
    # -- strong isolation (Section 3.5).
    "SI": "non-transactional store aborted a conflicting transaction",
    # -- OS / runtime interventions.
    "stall-deadlock": "possible-deadlock trap self-aborted a stalling "
                      "LogTM-SE transaction",
    "migration": "descheduled transaction resumed on a different core",
    "watchdog": "livelock watchdog force-aborted the top wounder",
    "irrevocable": "serial-irrevocable grant drained an in-flight peer",
    # -- scripted adversarial schedules (repro.adversary).
    "adversary": "schedule-script wound directive force-aborted the thread",
    # -- best-effort HTM backend (repro.stm.htmbe).
    "capacity": "hardware read/write set exceeded its capacity bound",
    "htm-conflict": "remote access conflicted with a best-effort HTM "
                    "attempt (attacker self-aborts)",
    "explicit": "best-effort HTM attempt cancelled by the runtime "
                "(context switch / migration kills the hardware state)",
    "fallback": "software-fallback lock acquisition drained an in-flight "
                "HTM peer",
}

#: Every registered wound kind, for membership tests and docs/tests.
WOUND_KINDS: FrozenSet[str] = frozenset(WOUND_KIND_REGISTRY)

#: The aggregation key used when an abort carries no attribution (the
#: kind is empty); not a wound kind itself — emit sites must never
#: stage it.
UNATTRIBUTED_KIND = "unattributed"

#: The fields of one event-log record, in tuple order (the fields of
#: :class:`~repro.obs.tracer.TraceEvent`).  ``SIM-E201`` reads the kind
#: literal of every tuple of this width the tracer appends to its log.
RECORD_FIELDS = ("kind", "cycle", "proc", "thread", "line", "dur", "cause", "data")

#: Kinds ``Tracer.tx_access`` records; ``sample_memory`` thins them.
ACCESS_KINDS: FrozenSet[str] = frozenset({"tx_read", "tx_write"})
#: Kinds ``Tracer.coherence`` records; ``trace_coherence`` gates them.
COHERENCE_KINDS: FrozenSet[str] = frozenset({"coh_request", "coh_response", "coh_evict"})
#: Kinds ``Tracer.sched`` records.
SCHED_KINDS: FrozenSet[str] = frozenset({"preempt", "yield", "dispatch", "retire"})

#: How each kind-carrying tracer method derives the recorded event kind
#: from its name argument: ``kind = prefix + <literal argument>``.
#: Methods that always record a single fixed kind appear in
#: :data:`FIXED_KINDS` instead; both tables drive rule ``SIM-E201``.
EMIT_PREFIXES: Mapping[str, str] = {
    "tx_access": "tx_",  # argument is "read" / "write"
    "overflow": "overflow_",
    "sched": "",
    "coherence": "",
    "watchdog": "watchdog_",
    "degrade": "degrade_",
    "metrics": "metrics_",
}

#: Tracer methods whose recorded kind is fixed (no name argument).
FIXED_KINDS: Mapping[str, str] = {
    "tx_begin": "tx_begin",
    "tx_commit": "tx_commit",
    "tx_abort": "tx_abort",
    "conflict": "conflict_detected",
    "aou_alert": "aou_alert",
    "stall": "conflict_stall",
}

def is_registered(kind: str) -> bool:
    """True when ``kind`` is a documented tracer event."""
    return kind in EVENT_REGISTRY
