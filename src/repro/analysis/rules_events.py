"""SIM-E2xx — tracer-event registry rules.

Every event kind an emit site can produce must exist in
:mod:`repro.obs.events` (``SIM-E201``), and every registered kind must
still have a live emit site (``SIM-E202``) — together they keep the
registry, the emit sites, and the docs/tests that import the registry
in lock-step.

Emit sites are calls on a receiver whose final segment is ``tracer``.
Fixed-kind methods (``tx_commit`` -> ``tx_commit``) resolve trivially;
kind-carrying methods (``overflow``, ``sched``, ``coherence``,
``watchdog``, ``degrade``, ``tx_access``) resolve their literal name
argument and apply the method's prefix.  A name argument that is a
local variable is resolved through single-assignment constant
propagation inside the enclosing function (this covers the
``rw = "read" if ... else "write"`` idiom); anything else is skipped —
the registry rule is exact on literals and silent on genuinely dynamic
names rather than guessing.

The tracer's own kind literals are checked too: ``TraceEvent``
constructions and the flat records it appends to its event log.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (
    Finding,
    ModuleUnit,
    Rule,
    dotted_name,
    literal_str_values,
    register,
)
from repro.obs.events import (
    EMIT_PREFIXES,
    EVENT_KINDS,
    FIXED_KINDS,
    KIND_ARG_INDEX,
    KIND_ARG_NAME,
    RECORD_FIELDS,
)


def _kind_argument(call: ast.Call, method: str) -> Optional[ast.expr]:
    """The expression carrying the event name for a prefixed method."""
    index = KIND_ARG_INDEX[method]
    if len(call.args) > index:
        return call.args[index]
    wanted = KIND_ARG_NAME[method]
    for keyword in call.keywords:
        if keyword.arg == wanted:
            return keyword.value
    return None


def _enclosing_function(unit: ModuleUnit, node: ast.AST) -> Optional[ast.FunctionDef]:
    current = unit.parent(node)
    while current is not None:
        if isinstance(current, ast.FunctionDef):
            return current
        current = unit.parent(current)
    return None


def _resolve_values(unit: ModuleUnit, call: ast.Call, expr: ast.expr) -> Optional[List[str]]:
    """Literal values ``expr`` can take at the call site, else None."""
    values = literal_str_values(expr)
    if values is not None:
        return values
    if isinstance(expr, ast.Name):
        function = _enclosing_function(unit, call)
        if function is None:
            return None
        assigned: Optional[List[str]] = None
        count = 0
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == expr.id:
                        count += 1
                        assigned = literal_str_values(node.value)
        if count == 1:
            return assigned
    return None


def _tracer_emits(
    unit: ModuleUnit,
) -> Iterator[Tuple[ast.Call, str, Optional[List[str]]]]:
    """Yield ``(call_node, method, kinds_or_None)`` for each emit site.

    ``kinds_or_None`` is the list of resolved event kinds, or ``None``
    when the name argument could not be resolved statically.
    """
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        receiver = dotted_name(node.func.value)
        if receiver is None or receiver.rsplit(".", 1)[-1] != "tracer":
            continue
        if method in FIXED_KINDS:
            yield node, method, [FIXED_KINDS[method]]
        elif method in EMIT_PREFIXES:
            argument = _kind_argument(node, method)
            if argument is None:
                yield node, method, None
                continue
            values = _resolve_values(unit, node, argument)
            if values is None:
                yield node, method, None
            else:
                prefix = EMIT_PREFIXES[method]
                yield node, method, [prefix + value for value in values]


def _trace_event_literals(unit: ModuleUnit) -> Iterator[Tuple[ast.Call, List[str]]]:
    """Kind literals the tracer itself writes.

    Two forms: ``TraceEvent("<kind>", ...)`` constructions, and event-log
    records ``x.append(("<kind>", cycle, ...))`` / ``x._append((...))``
    whose tuple has the record width of ``RECORD_FIELDS``.
    """
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        last = name.rsplit(".", 1)[-1]
        kind: Optional[ast.expr] = None
        if last == "TraceEvent":
            if node.args:
                kind = node.args[0]
        elif last in ("append", "_append") and len(node.args) == 1:
            record = node.args[0]
            if isinstance(record, ast.Tuple) and len(record.elts) == len(RECORD_FIELDS):
                kind = record.elts[0]
        if kind is not None:
            values = literal_str_values(kind)
            if values is not None:
                yield node, values


@register
class UnregisteredEventRule(Rule):
    """SIM-E201: emit site producing a kind missing from the registry."""

    name = "SIM-E201"
    severity = "error"
    description = (
        "tracer emit site produces an event kind that is not in "
        "repro.obs.events.EVENT_REGISTRY"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node, method, kinds in _tracer_emits(unit):
            if kinds is None:
                continue
            for kind in kinds:
                if kind not in EVENT_KINDS:
                    yield unit.finding(
                        self,
                        node,
                        f"tracer.{method}(...) emits unregistered event kind "
                        f"{kind!r}; add it to repro.obs.events.EVENT_REGISTRY "
                        "or fix the typo",
                    )
        for node, values in _trace_event_literals(unit):
            for kind in values:
                if kind not in EVENT_KINDS:
                    yield unit.finding(
                        self,
                        node,
                        f"traced event kind {kind!r} is not in "
                        "repro.obs.events.EVENT_REGISTRY",
                    )


@register
class DeadEventRule(Rule):
    """SIM-E202: registered kind with no remaining emit site."""

    name = "SIM-E202"
    severity = "warning"
    scope = "program"
    description = (
        "event kind registered in repro.obs.events but never produced by "
        "any emit site (dead taxonomy)"
    )

    def check_program(self, units: Sequence[ModuleUnit]) -> Iterator[Finding]:
        emitted: Set[str] = set()
        registry_unit: Optional[ModuleUnit] = None
        for unit in units:
            if unit.relpath.endswith("repro/obs/events.py"):
                registry_unit = unit
            for _node, _method, kinds in _tracer_emits(unit):
                if kinds:
                    emitted.update(kinds)
            for _node, values in _trace_event_literals(unit):
                emitted.update(values)
        if registry_unit is None:
            # The registry module is outside the analyzed file set; the
            # deadness check would be vacuously noisy, so skip it.
            return
        for kind in sorted(EVENT_KINDS - emitted):
            yield Finding(
                rule=self.name,
                severity=self.severity,
                path=registry_unit.relpath,
                line=1,
                col=0,
                message=(
                    f"registered event kind {kind!r} has no emit site in the "
                    "analyzed tree; remove it or restore the emitter"
                ),
                context="EVENT_REGISTRY",
            )
