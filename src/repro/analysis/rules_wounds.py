"""SIM-E2xx (continued) — wound-kind registry rules.

The abort taxonomy (``RunResult.aborts_by_kind``, the chaos and
adversary reports, the tracer's ``tx_abort`` attribution) is keyed by
the wound-kind strings staged at
:meth:`~repro.core.machine.FlexTMMachine.stage_wound` /
:meth:`~repro.core.machine.FlexTMMachine.force_abort` call sites.
Those strings are centralized in
:data:`repro.runtime.tmtypes.WOUND_KIND_REGISTRY`; these rules keep the
registry and the emit sites in lock-step, exactly as the tracer-event
rules (``SIM-E201``/``SIM-E202``) do for event kinds:

* ``SIM-E203`` (error) — an emit site stages a kind missing from the
  registry, or a ``force_abort`` call omits the kind entirely (which
  silently lands in the ``unattributed`` bucket — the attribution loss
  strict invariants diagnose at run time, caught here at lint time);
* ``SIM-E204`` (warning) — a registered kind whose literal appears
  nowhere else in the analyzed tree (dead taxonomy).

Kind arguments are resolved like event names: string literals,
conditional-expression literals, and single-assignment local variables
(``cst_kind = "W-W" if ... else "W-R"``).  Genuinely dynamic kinds
(``CST_LABELS[...]`` lookups, parameter pass-through inside
``force_abort`` itself) are skipped rather than guessed — which is why
``SIM-E204`` falls back to whole-tree literal search instead of
emit-site resolution.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, ModuleUnit, Rule, register
from repro.analysis.rules_events import _resolve_values
from repro.runtime.tmtypes import WOUND_KINDS

#: Methods whose (third) argument stages a wound kind.
_STAGING_METHODS = ("stage_wound", "force_abort")
#: Positional index of the kind argument on the bound call.
_KIND_INDEX = 2

#: Module holding the registry (deadness findings anchor here, and its
#: own literals don't count as uses).
_REGISTRY_RELPATH = "repro/runtime/tmtypes.py"


def _kind_argument(call: ast.Call) -> Optional[ast.expr]:
    if len(call.args) > _KIND_INDEX:
        return call.args[_KIND_INDEX]
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return keyword.value
    return None


def _staging_calls(
    unit: ModuleUnit,
) -> Iterator[Tuple[ast.Call, str, Optional[ast.expr]]]:
    """Yield ``(call, method, kind_expr_or_None)`` for each emit site."""
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        if method not in _STAGING_METHODS:
            continue
        yield node, method, _kind_argument(node)


@register
class UnregisteredWoundKindRule(Rule):
    """SIM-E203: staged wound kind missing from WOUND_KIND_REGISTRY."""

    name = "SIM-E203"
    severity = "error"
    description = (
        "stage_wound/force_abort call stages a wound kind that is not in "
        "repro.runtime.tmtypes.WOUND_KIND_REGISTRY (or stages none at all)"
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
        "wound kind registered in repro.runtime.tmtypes but its literal "
        "appears nowhere else in the analyzed tree (dead taxonomy)"
    )

    def check_program(self, units: Sequence[ModuleUnit]) -> Iterator[Finding]:
        used: Set[str] = set()
        registry_unit: Optional[ModuleUnit] = None
        for unit in units:
            if unit.relpath.endswith(_REGISTRY_RELPATH):
                registry_unit = unit
                continue
            for node in ast.walk(unit.tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value in WOUND_KINDS:
                        used.add(node.value)
        if registry_unit is None:
            # Registry module outside the analyzed file set: skip rather
            # than flag every kind (mirrors SIM-E202).
            return
        for kind in sorted(WOUND_KINDS - used):
            yield Finding(
                rule=self.name,
                severity=self.severity,
                path=registry_unit.relpath,
                line=1,
                col=0,
                message=(
                    f"registered wound kind {kind!r} is used nowhere in the "
                    "analyzed tree; remove it or restore the emitter"
                ),
                context="WOUND_KIND_REGISTRY",
            )
