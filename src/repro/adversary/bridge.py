"""Abstract model-checker traces -> concrete ScheduleScripts.

The model checker (:mod:`repro.analysis.modelcheck`) minimizes every
invariant violation to a shortest event trace over abstract caches.
This module lowers such a trace onto the real simulator: each abstract
cache becomes a thread, transactional episodes (the span where the
cache holds a live signature footprint) become transactional
:class:`~repro.runtime.txthread.WorkItem` bodies, isolated plain
accesses become non-transactional items, and the global event order
becomes a :class:`~repro.adversary.script.ScheduleScript` replayed
through the adversary conformance harness with every oracle armed.

The replay *classifies* the finding rather than re-proving it:

``confirmed``
    the concrete run crashed, wedged, or tripped a runtime oracle —
    the spec hole is observable on the implementation;
``spec-only``
    the implementation survives the interleaving (it does not share
    the spec's hole, or hardware-level effects the script cannot
    reproduce — e.g. a mid-protocol message loss — mask it).

Lowering is deliberately conservative and its gaps are explicit:

* model events *after* a thread's abort event are dropped (the real
  thread immediately retries its body; the count is recorded in the
  spec description);
* a plain access that the model leaves in flight (issued, never
  delivered) never executes;
* op ordering is enforced with run-until windows between 400-step
  spacers, the same geometry as the named catalog — accesses separated
  by fewer scheduler steps than a window may reorder, which at worst
  downgrades a ``confirmed`` into a ``spec-only``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.adversary.script import ScheduleScript, Step
from repro.adversary.schedules import ScheduleSpec
from repro.runtime.txthread import WorkItem

#: First window after a realignment point (thread start, begin, a
#: commit): long enough to cover begin + the first access on FlexTM.
_FIRST_WINDOW = 40
#: Steady-state window and the spacer each access trails: every window
#: must complete exactly one access and die inside the next spacer.
_SPACER = 400
_WINDOW = _SPACER + 40

#: Transactional / plain access kinds, and whether each op writes.
_TX_OPS: Dict[str, str] = {"TLoad": "r", "TStore": "w"}
_PLAIN_OPS: Dict[str, str] = {"Load": "lr", "Store": "lw"}


def _bridge_body(
    ops: Sequence[Tuple[str, int]], cells: Sequence[int], unique: Iterator[int]
) -> Callable:
    """A body generator mixing transactional and raw plain ops."""

    def body(ctx) -> Iterator[Tuple]:
        for kind, index in ops:
            if kind == "r":
                yield from ctx.read(cells[index])
            elif kind == "w":
                yield from ctx.write(cells[index], next(unique))
            elif kind == "lr":
                yield ("load", cells[index])
            elif kind == "lw":
                yield ("store", cells[index], next(unique))
            elif kind == "spacer":
                for _ in range(index):
                    yield from ctx.work(1)
            else:  # pragma: no cover - lowering bugs should fail loudly
                raise ValueError(f"unknown bridge op {kind!r}")

    return body


def schedule_from_trace(
    trace: Sequence[Tuple[str, int, str]],
    caches: int,
    name: str,
    description: str = "",
    citation: str = "model checker counterexample",
) -> ScheduleSpec:
    """Lower an annotated model trace to a replayable ScheduleSpec.

    ``trace`` is a sequence of ``(op, cache, kind)`` events as produced
    by :func:`repro.analysis.modelcheck.annotate_trace` — ``op`` one of
    ``local``/``issue``/``deliver``/``commit``/``abort``.
    """
    # Per-thread episodes: ("tx" | "plain", [(op, cell-index), ...]).
    episodes: List[List[Tuple[str, List[Tuple[str, int]]]]] = [
        [] for _ in range(caches)
    ]
    in_tx = [False] * caches
    wounded = [False] * caches
    dropped = 0
    steps: List[Step] = []

    for op, thread, access in trace:
        if wounded[thread]:
            dropped += 1
            continue
        if op == "issue":
            continue  # no global effect until the deliver executes it
        if op == "commit":
            steps.append(Step.run(thread, until="commit"))
            in_tx[thread] = False
            continue
        if op == "abort":
            steps.append(Step.wound(thread))
            in_tx[thread] = False
            wounded[thread] = True
            continue
        # op is local / deliver: one concrete access of kind ``access``.
        if access in _TX_OPS:
            if not in_tx[thread]:
                in_tx[thread] = True
                episodes[thread].append(("tx", []))
                steps.append(Step.run(thread, until="begin"))
                window = _FIRST_WINDOW
            else:
                window = _WINDOW
            episodes[thread][-1][1].extend(
                [(_TX_OPS[access], 0), ("spacer", _SPACER)]
            )
            steps.append(Step.run(thread, until="ops", count=window))
        elif access in _PLAIN_OPS:
            if in_tx[thread]:
                episodes[thread][-1][1].extend(
                    [(_PLAIN_OPS[access], 0), ("spacer", _SPACER)]
                )
                steps.append(Step.run(thread, until="ops", count=_WINDOW))
            else:
                episodes[thread].append(
                    ("plain", [(_PLAIN_OPS[access], 0), ("spacer", _SPACER)])
                )
                steps.append(
                    Step.run(thread, until="ops", count=_FIRST_WINDOW)
                )
        # Unknown kinds (e.g. a deliver the annotator could not resolve)
        # are skipped: the tail drain still retires every thread.
    for thread in range(caches):
        steps.append(Step.run(thread, until="done"))

    plain_ops = any(
        op in ("lr", "lw")
        for thread_eps in episodes
        for _kind, ops in thread_eps
        for op, _index in ops
    )
    if dropped:
        description = (
            f"{description} [{dropped} post-abort model event(s) dropped; "
            "the wounded thread retries its body instead]"
        ).strip()
    script = ScheduleScript(
        name=name,
        steps=tuple(steps),
        description=description,
        citation=citation,
    )

    def build(
        cells: Sequence[int], unique: Iterator[int]
    ) -> Tuple[List[List[WorkItem]], ScheduleScript]:
        bodies: List[List[WorkItem]] = []
        for thread_eps in episodes:
            items: List[WorkItem] = []
            for kind, ops in thread_eps:
                items.append(
                    WorkItem(
                        _bridge_body(ops, cells, unique),
                        transactional=(kind == "tx"),
                    )
                )
            bodies.append(items)
        return bodies, script

    return ScheduleSpec(
        name=name,
        description=description,
        citation=citation,
        threads=caches,
        cells=1,
        forbid_aborts=False,
        build=build,
        plain_ops=plain_ops,
    )


# ------------------------------------------------------------------ replay


def spec_from_violation(violation, name: Optional[str] = None) -> ScheduleSpec:
    """The ScheduleSpec replaying one model-checker Violation."""
    schedule_name = name or f"mc-{violation.rule.lower()}"
    return schedule_from_trace(
        violation.trace,
        violation.caches,
        schedule_name,
        description=f"{violation.rule}: {violation.message}",
    )


def replay_violation(
    violation,
    backend: str = "FlexTM",
    seed: int = 1,
    cycle_limit: Optional[int] = None,
) -> Dict[str, object]:
    """Replay a Violation on the real simulator and classify it."""
    from repro.adversary.conformance import (
        DEFAULT_CYCLE_LIMIT,
        run_schedule_cell,
    )

    spec = spec_from_violation(violation)
    cell = run_schedule_cell(
        backend,
        spec.name,
        seed=seed,
        cycle_limit=cycle_limit or DEFAULT_CYCLE_LIMIT,
        strict=True,
        spec=spec,
    )
    return {
        "rule": violation.rule,
        "schedule": spec.name,
        "backend": backend,
        "classification": (
            "confirmed" if cell.verdict == "violates" else "spec-only"
        ),
        "verdict": cell.verdict,
        "detail": cell.detail,
        "commits": cell.commits,
        "aborts": cell.aborts,
        "trace": violation.render_trace(),
    }


# ------------------------------------------------------------------ export

COUNTEREXAMPLE_SCHEMA = "repro.modelcheck.counterexample/v1"


def export_counterexample(violation, path: Path) -> Dict[str, object]:
    """Write one violation + its ScheduleScript as a JSON document."""
    spec = spec_from_violation(violation)
    _bodies, script = spec.build([0], itertools.count())
    doc: Dict[str, object] = {
        "schema": COUNTEREXAMPLE_SCHEMA,
        "rule": violation.rule,
        "message": violation.message,
        "caches": violation.caches,
        "trace": [list(event) for event in violation.trace],
        "rendered": violation.render_trace(),
        "script": script.to_json(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def load_counterexample(path: Path) -> Tuple[Dict[str, object], ScheduleSpec]:
    """Rebuild the replayable ScheduleSpec from an exported document."""
    doc = json.loads(path.read_text())
    if doc.get("schema") != COUNTEREXAMPLE_SCHEMA:
        raise ValueError(f"{path}: not a {COUNTEREXAMPLE_SCHEMA} document")
    trace = [tuple(event) for event in doc["trace"]]
    script = ScheduleScript.from_json(doc["script"])
    spec = schedule_from_trace(
        trace,
        int(doc["caches"]),
        script.name,
        description=script.description,
        citation=script.citation,
    )
    return doc, spec
