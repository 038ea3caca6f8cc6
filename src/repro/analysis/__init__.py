"""simcheck — the repo-specific static-analysis engine.

An AST-based lint pass that proves, at review time, the cross-cutting
properties every dynamic layer of this reproduction stakes its
correctness on:

* **determinism** (``SIM-D0xx``) — no wall-clock, global ``random``,
  ``os.urandom``, salted builtin ``hash()`` or ordered iteration over
  ``set`` values inside ``src/repro``; everything routes through
  ``repro.sim.rng`` / ``repro.sim.clock``;
* **hook-site hygiene** (``SIM-H1xx``) — every ``tracer`` / ``chaos`` /
  ``resilience`` use in core/coherence/runtime is guarded, so opt-in
  layers can never become load-bearing;
* **kind registries** (``SIM-E2xx``) — every literal event name
  reaching an emit site exists in ``repro.obs.events.EVENT_REGISTRY``,
  every wound kind staged at a ``stage_wound``/``force_abort`` site
  exists in ``repro.obs.events.WOUND_KIND_REGISTRY``, and no registered
  kind of either registry is dead;
* **model-checked protocol safety** (``SIM-M4xx``) — an exhaustive
  explicit-state exploration of the ``repro.coherence.spec`` tables
  (SWMR, CST dual-update symmetry, lost conflict responses, TSW
  legality, quiescence) with minimal counterexamples bridged onto the
  real simulator.  The controllers execute the same tables, compiled
  by ``repro.coherence.tables``; run through ``python -m repro.harness modelcheck`` or
  ``analyze --modelcheck``.

Run it with ``python -m repro.harness analyze``; see docs/ANALYSIS.md.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisReport,
    Finding,
    ModuleUnit,
    Rule,
    all_rules,
    iter_source_files,
    run_analysis,
)

# Importing the rule modules registers every rule with the engine.
from repro.analysis import modelcheck  # noqa: F401
from repro.analysis import rules_determinism  # noqa: F401
from repro.analysis import rules_events  # noqa: F401
from repro.analysis import rules_hooks  # noqa: F401

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleUnit",
    "Rule",
    "all_rules",
    "iter_source_files",
    "run_analysis",
]
