"""SIM-H1xx — hook-site hygiene rules.

Observability (the ``tracer``, which also carries the metrics hub,
and ``probes``), fault injection (``chaos``), protocol assertions
(``invariants``) and adaptive degradation (``resilience``) are
*opt-in* layers: the core simulator must run
bit-identically with all of them absent.  That only holds if every
hook use in ``core/``, ``coherence/`` and ``runtime/`` is behind its
guard:

* ``chaos`` / ``resilience`` / ``probes`` / ``invariants`` attributes
  are ``None`` by default, so any member access must be dominated by an ``is not None``
  check on the same expression (``SIM-H101``);
* the tracer is a shared ``NULL_TRACER`` whose methods are no-ops, so a
  bare emit is *functionally* safe — but the performance contract (one
  attribute read per potential event) and the layering contract (core
  code never does work on behalf of a disabled layer) require every
  emit call to be dominated by an ``.enabled`` test (``SIM-H102``).
  Every observer reads the tracer's event log (a metrics hub folds
  it; :func:`~repro.obs.tracer.tee` attaches the hub), so this one
  guard per site covers them all.

"Dominated" is computed per enclosing function with a conservative
structural walk that understands ``if X is not None:`` bodies,
early-exit guards (``if X is None: return``), ``and`` chains,
conditional expressions, and ``assert X is not None``.  Guarding in a
*caller* does not count: each function must re-establish its own
guards, so refactors can never silently strand a hook use.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, ModuleUnit, Rule, dotted_name, register

#: Directories (relative to the analysis root) the hygiene rules police.
HOOK_SCOPE = ("repro/core/", "repro/coherence/", "repro/runtime/")

#: Optional hooks that default to None.
OPTIONAL_HOOKS = ("chaos", "resilience", "probes", "invariants")


def _in_scope(unit: ModuleUnit) -> bool:
    return any(part in unit.relpath for part in HOOK_SCOPE)


def _terminates(body: List[ast.stmt]) -> bool:
    """True when a block always leaves the enclosing function/loop."""
    if not body:
        return False
    tail = body[-1]
    return isinstance(tail, (ast.Return, ast.Raise, ast.Continue, ast.Break))


class _GuardWalker:
    """Walks one function, tracking which guard facts dominate each node.

    Guard facts are strings: ``"nn:<expr>"`` (expression proven
    non-None) and ``"en:<expr>"`` (expression proven truthy — used for
    ``tracer.enabled``).  Expressions are dotted-name texts, so aliases
    (``tracer = self.machine.tracer``) work as long as the guard tests
    the same alias the emit call uses.
    """

    def __init__(self, visit_use: Callable[[ast.expr, FrozenSet[str]], None]) -> None:
        # visit_use(node, guards) is called for every expression node.
        self._visit_use = visit_use

    # -- fact extraction -----------------------------------------------------

    @staticmethod
    def _facts_if_true(test: ast.expr) -> Set[str]:
        """Facts established when ``test`` evaluates truthy."""
        facts: Set[str] = set()
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                facts |= _GuardWalker._facts_if_true(value)
            return facts
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            if isinstance(op, ast.IsNot) and _is_none(right):
                name = dotted_name(left)
                if name:
                    facts.add(f"nn:{name}")
            elif isinstance(op, ast.IsNot) and _is_none(left):
                name = dotted_name(right)
                if name:
                    facts.add(f"nn:{name}")
        name = dotted_name(test)
        if name:
            facts.add(f"en:{name}")
            # Truthiness of X.attr implies X.attr is not None too.
            facts.add(f"nn:{name}")
        return facts

    @staticmethod
    def _facts_if_false(test: ast.expr) -> Set[str]:
        """Facts established when ``test`` evaluates falsy."""
        facts: Set[str] = set()
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            # not (a or b) == not a and not b
            for value in test.values:
                facts |= _GuardWalker._facts_if_false(value)
            return facts
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return _GuardWalker._facts_if_true(test.operand)
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            if isinstance(op, ast.Is) and _is_none(right):
                name = dotted_name(left)
                if name:
                    facts.add(f"nn:{name}")
            elif isinstance(op, ast.Is) and _is_none(left):
                name = dotted_name(right)
                if name:
                    facts.add(f"nn:{name}")
        return facts

    # -- statement walk ------------------------------------------------------

    def walk_body(self, body: List[ast.stmt], guards: FrozenSet[str]) -> None:
        current = set(guards)
        for statement in body:
            self._walk_statement(statement, current)
            # Early-exit guard pattern: "if <cond>: return/raise" makes
            # the negation of <cond> hold for the rest of the block.
            if isinstance(statement, ast.If) and not statement.orelse:
                if _terminates(statement.body):
                    current |= self._facts_if_false(statement.test)
            if isinstance(statement, ast.Assert):
                current |= self._facts_if_true(statement.test)
            # An assignment to a guarded expression invalidates facts
            # about it (rebinding may reintroduce None).
            if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                for target in targets:
                    name = dotted_name(target)
                    if name:
                        current -= {f"nn:{name}", f"en:{name}"}

    def _walk_statement(self, statement: ast.stmt, guards: Set[str]) -> None:
        frozen = frozenset(guards)
        if isinstance(statement, ast.If):
            self._walk_expression(statement.test, frozen)
            self.walk_body(statement.body, frozen | self._facts_if_true(statement.test))
            self.walk_body(statement.orelse, frozen | self._facts_if_false(statement.test))
        elif isinstance(statement, (ast.While,)):
            self._walk_expression(statement.test, frozen)
            self.walk_body(statement.body, frozen | self._facts_if_true(statement.test))
            self.walk_body(statement.orelse, frozen)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self._walk_expression(statement.iter, frozen)
            self.walk_body(statement.body, frozen)
            self.walk_body(statement.orelse, frozen)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                self._walk_expression(item.context_expr, frozen)
            self.walk_body(statement.body, frozen)
        elif isinstance(statement, ast.Try):
            self.walk_body(statement.body, frozen)
            for handler in statement.handlers:
                self.walk_body(handler.body, frozen)
            self.walk_body(statement.orelse, frozen)
            self.walk_body(statement.finalbody, frozen)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested scopes start with no inherited guards.
            pass
        else:
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.expr):
                    self._walk_expression(child, frozen)

    def _walk_expression(self, expression: ast.expr, guards: FrozenSet[str]) -> None:
        if isinstance(expression, ast.BoolOp) and isinstance(expression.op, ast.And):
            running = set(guards)
            for value in expression.values:
                self._walk_expression(value, frozenset(running))
                running |= self._facts_if_true(value)
            return
        if isinstance(expression, ast.BoolOp) and isinstance(expression.op, ast.Or):
            running = set(guards)
            for value in expression.values:
                self._walk_expression(value, frozenset(running))
                running |= self._facts_if_false(value)
            return
        if isinstance(expression, ast.IfExp):
            self._walk_expression(expression.test, guards)
            self._walk_expression(
                expression.body, guards | self._facts_if_true(expression.test)
            )
            self._walk_expression(
                expression.orelse, guards | self._facts_if_false(expression.test)
            )
            return
        self._visit_use(expression, guards)
        for child in ast.iter_child_nodes(expression):
            if isinstance(child, ast.expr):
                self._walk_expression(child, guards)


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _hook_receiver(node: ast.expr, hooks: Tuple[str, ...]) -> Optional[str]:
    """Dotted text of ``node`` when it denotes one of the hook objects."""
    name = dotted_name(node)
    if name is None:
        return None
    final = name.rsplit(".", 1)[-1]
    return name if final in hooks else None


@register
class UnguardedOptionalHookRule(Rule):
    """SIM-H101: optional-hook member access without a None guard."""

    name = "SIM-H101"
    severity = "error"
    description = (
        "chaos/resilience/probes/invariants hook member access not "
        "dominated by an 'is not None' check in the same function"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return _in_scope(unit)

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        findings: List[Finding] = []

        for function in unit.functions():

            def visit(node: ast.expr, guards: FrozenSet[str]) -> None:
                if not isinstance(node, ast.Attribute):
                    return
                receiver = _hook_receiver(node.value, OPTIONAL_HOOKS)
                if receiver is None:
                    return
                if f"nn:{receiver}" in guards:
                    return
                findings.append(
                    unit.finding(
                        self,
                        node,
                        f"access to {receiver}.{node.attr} is not guarded by "
                        f"'{receiver} is not None' in this function — the "
                        "opt-in layer would become load-bearing",
                    )
                )

            walker = _GuardWalker(visit)
            walker.walk_body(function.body, frozenset())
        return iter(findings)


@register
class UnguardedTracerEmitRule(Rule):
    """SIM-H102: tracer emit call without a dominating .enabled test."""

    name = "SIM-H102"
    severity = "error"
    description = (
        "tracer method call not dominated by a '<tracer>.enabled' test "
        "in the same function"
    )

    #: Attribute reads on the tracer that are not emissions.
    _NON_EMITTING = {"enabled"}

    def applies_to(self, unit: ModuleUnit) -> bool:
        return _in_scope(unit)

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        findings: List[Finding] = []

        for function in unit.functions():

            def visit(node: ast.expr, guards: FrozenSet[str]) -> None:
                if not isinstance(node, ast.Call):
                    return
                func = node.func
                if not isinstance(func, ast.Attribute):
                    return
                receiver = _hook_receiver(func.value, ("tracer",))
                if receiver is None or func.attr in self._NON_EMITTING:
                    return
                if f"en:{receiver}.enabled" in guards:
                    return
                findings.append(
                    unit.finding(
                        self,
                        node,
                        f"{receiver}.{func.attr}(...) emits without a "
                        f"dominating 'if {receiver}.enabled:' guard in this "
                        "function",
                    )
                )

            walker = _GuardWalker(visit)
            walker.walk_body(function.body, frozenset())
        return iter(findings)
