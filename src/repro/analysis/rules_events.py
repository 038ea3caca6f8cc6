"""SIM-E2xx — kind-registry rules.

:mod:`repro.obs.events` holds the two registries of kind strings the
simulator records: :data:`~repro.obs.events.EVENT_REGISTRY` for tracer
events and :data:`~repro.obs.events.WOUND_KIND_REGISTRY` for abort
causes.  Four rules keep each in lock-step with its emit sites and with
the docs/tests that import it:

* ``SIM-E201`` (error) — a tracer emit site produces an event kind
  missing from the event registry;
* ``SIM-E202`` (warning) — a registered event kind that no emit site
  produces any more (dead taxonomy);
* ``SIM-E203`` (error) — a ``stage_wound``/``force_abort`` site stages
  a wound kind missing from the wound registry, or a ``force_abort``
  call omits the kind entirely (which silently lands in the
  ``unattributed`` bucket — the attribution loss strict invariants
  diagnose at run time, caught here at lint time);
* ``SIM-E204`` (warning) — a registered wound kind whose literal
  appears nowhere else in the analyzed tree (dead taxonomy).

Tracer emit sites are calls on a receiver whose final segment is
``tracer``.  Fixed-kind methods (``tx_commit`` -> ``tx_commit``) resolve
trivially; kind-carrying methods (``overflow``, ``sched``,
``coherence``, ``watchdog``, ``degrade``, ``metrics``, ``tx_access``)
take the kind as their first ``str`` parameter, read from the
:class:`~repro.obs.tracer.Tracer` signature, and apply the method's
prefix.  Wound emit sites are every ``stage_wound``/``force_abort``
call.  One resolver serves both: a kind argument that is a literal or
a conditional expression of literals resolves to its values; a local
variable is resolved through single-assignment constant propagation
inside the enclosing function (this covers the
``rw = "read" if ... else "write"`` and ``cst_kind = "W-W" if ... else
"W-R"`` idioms); anything else (``CST_LABELS[...]`` lookups, parameter
pass-through) is skipped — the rules are exact on literals and silent
on genuinely dynamic names rather than guessing.  That is also why
``SIM-E204`` counts every literal in the tree as a use instead of
resolving emit sites.

The tracer's own kind literals are checked too: ``TraceEvent``
constructions and the flat records it appends to its event log.
"""

from __future__ import annotations

import ast
import inspect
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
    RECORD_FIELDS,
    WOUND_KINDS,
)
from repro.obs.tracer import Tracer

#: Where a kind-carrying call takes its kind: (index after self, keyword).
KindParameter = Tuple[int, str]

#: The module holding both registries: dead-kind findings anchor here,
#: and its own literals are not uses.
_REGISTRY_RELPATH = "repro/obs/events.py"


def _first_str_parameter(method: str) -> KindParameter:
    """The kind parameter of a prefixed tracer method: its first ``str``."""
    parameters = list(inspect.signature(getattr(Tracer, method)).parameters.values())
    for index, parameter in enumerate(parameters[1:]):
        if parameter.annotation in (str, "str"):
            return index, parameter.name
    raise LookupError(f"Tracer.{method} takes no str kind argument")


#: Each prefixed tracer method's kind parameter.
_EVENT_KIND_PARAMETERS: Dict[str, KindParameter] = {
    method: _first_str_parameter(method) for method in EMIT_PREFIXES
}
#: ``stage_wound(tsw_address, by, kind)`` / ``force_abort(descriptor, by, kind)``.
_WOUND_KIND_PARAMETERS: Dict[str, KindParameter] = {
    "stage_wound": (2, "kind"),
    "force_abort": (2, "kind"),
}


def _kind_argument(call: ast.Call, parameter: KindParameter) -> Optional[ast.expr]:
    """The expression passed for ``parameter``, positionally or by name."""
    index, name = parameter
    if len(call.args) > index:
        return call.args[index]
    for keyword in call.keywords:
        if keyword.arg == name:
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
        elif method in _EVENT_KIND_PARAMETERS:
            argument = _kind_argument(node, _EVENT_KIND_PARAMETERS[method])
            values = None if argument is None else _resolve_values(unit, node, argument)
            if values is None:
                yield node, method, None
            else:
                prefix = EMIT_PREFIXES[method]
                yield node, method, [prefix + value for value in values]


def _staging_calls(
    unit: ModuleUnit,
) -> Iterator[Tuple[ast.Call, str, Optional[ast.expr]]]:
    """Yield ``(call, method, kind_expr_or_None)`` for each wound emit site."""
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        parameter = _WOUND_KIND_PARAMETERS.get(node.func.attr)
        if parameter is not None:
            yield node, node.func.attr, _kind_argument(node, parameter)


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


def _emitted_events(unit: ModuleUnit) -> Iterator[str]:
    """Every event kind one module's emit sites and records resolve to."""
    for _node, _method, kinds in _tracer_emits(unit):
        if kinds:
            yield from kinds
    for _node, values in _trace_event_literals(unit):
        yield from values


def _string_literals(unit: ModuleUnit) -> Iterator[str]:
    """Every string constant in one module."""
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _dead_kinds(
    rule: Rule,
    units: Sequence[ModuleUnit],
    kinds: Iterable[str],
    uses: Callable[[ModuleUnit], Iterable[str]],
    noun: str,
    unused: str,
    context: str,
) -> Iterator[Finding]:
    """One finding, anchored at the registry module, per unused kind.

    ``uses`` names the strings one module (other than the registry's)
    uses.  Without the registry module in the analyzed file set every
    kind would read as dead, so the check is skipped instead.
    """
    used: Set[str] = set()
    registry_unit: Optional[ModuleUnit] = None
    for unit in units:
        if unit.relpath.endswith(_REGISTRY_RELPATH):
            registry_unit = unit
        else:
            used.update(uses(unit))
    if registry_unit is None:
        return
    for kind in sorted(set(kinds) - used):
        yield Finding(
            rule=rule.name,
            severity=rule.severity,
            path=registry_unit.relpath,
            line=1,
            col=0,
            message=(
                f"registered {noun} {kind!r} {unused} in the analyzed tree; "
                "remove it or restore the emitter"
            ),
            context=context,
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
        return _dead_kinds(
            self, units, EVENT_KINDS, _emitted_events,
            "event kind", "has no emit site", "EVENT_REGISTRY",
        )


@register
class UnregisteredWoundKindRule(Rule):
    """SIM-E203: staged wound kind missing from WOUND_KIND_REGISTRY."""

    name = "SIM-E203"
    severity = "error"
    description = (
        "stage_wound/force_abort call stages a wound kind that is not in "
        "repro.obs.events.WOUND_KIND_REGISTRY (or stages none at all)"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node, method, argument in _staging_calls(unit):
            if argument is None:
                yield unit.finding(
                    self,
                    node,
                    f"{method}(...) without a kind argument lands in the "
                    "'unattributed' abort bucket; pass a kind from "
                    "WOUND_KIND_REGISTRY",
                )
                continue
            values = _resolve_values(unit, node, argument)
            if values is None:
                continue  # genuinely dynamic; the runtime strict check owns it
            for kind in values:
                if kind and kind not in WOUND_KINDS:
                    yield unit.finding(
                        self,
                        node,
                        f"{method}(...) stages unregistered wound kind "
                        f"{kind!r}; add it to WOUND_KIND_REGISTRY or fix "
                        "the typo",
                    )


@register
class DeadWoundKindRule(Rule):
    """SIM-E204: registered wound kind with no remaining use."""

    name = "SIM-E204"
    severity = "warning"
    scope = "program"
    description = (
        "wound kind registered in repro.obs.events but its literal "
        "appears nowhere else in the analyzed tree (dead taxonomy)"
    )

    def check_program(self, units: Sequence[ModuleUnit]) -> Iterator[Finding]:
        return _dead_kinds(
            self, units, WOUND_KINDS, _string_literals,
            "wound kind", "is used nowhere", "WOUND_KIND_REGISTRY",
        )
