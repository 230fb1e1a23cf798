"""CONGEST protocol rules (RPR011-RPR013).

The round engine trusts three structural declarations an algorithm class
makes, and silently produces wrong metrics (or wrong runs) when the code
drifts from them.  Each rule mechanizes one declaration:

* RPR011 — ``on_crash``/``on_recover`` are engine hooks with the fixed
  shape ``(self, node)``; an override with a different signature raises
  only when a fault actually hits that node, i.e. in the middle of an
  adversarial sweep.
* RPR012 — the engine snapshots ``wake_at_rounds`` when a run starts,
  before it calls ``initialize``; assigning it later in the algorithm's
  lifecycle silently changes nothing.  Writes are allowed only in
  ``__init__`` and helpers reachable from it via ``self.<method>()``
  calls.
* RPR013 — a bulk kernel declares its mutable round state in
  ``bulk_state``; the equivalence oracle resets/compares exactly those
  attributes, so a ``bulk_round`` (or any helper reachable from it)
  rebinding an undeclared ``self.<attr>`` mutates state the oracle never
  sees.  Element stores into declared arrays are fine — the rule flags
  attribute *rebinding* only.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .context import ModuleContext, class_methods, self_calls
from .findings import Finding
from .registry import rule

#: Methods that run before the engine snapshots an algorithm's timers.
TIMER_SETUP_METHODS = frozenset({"__init__"})


def _is_algorithm_class(cls: ast.ClassDef, module: ModuleContext) -> bool:
    for base in cls.bases:
        name = module.resolve(base)
        if name is not None and name.split(".")[-1].endswith("Algorithm"):
            return True
    return False


@rule(
    "RPR011", "crash-hook-signature",
    description=(
        "`on_crash`/`on_recover` overrides must match the engine hook "
        "signature `(self, node)` — a mismatch only surfaces mid-sweep, "
        "when a fault first hits the node"
    ),
)
def check_crash_hooks(module: ModuleContext) -> Iterator[Finding]:
    for cls in module.classes():
        if not _is_algorithm_class(cls, module):
            continue
        for name, method in class_methods(cls).items():
            if name not in ("on_crash", "on_recover"):
                continue
            args = method.args
            positional = list(args.posonlyargs) + list(args.args)
            ok = (len(positional) == 2
                  and args.vararg is None
                  and args.kwarg is None
                  and not args.kwonlyargs)
            if not ok:
                yield module.finding(
                    method, "RPR011",
                    f"{cls.name}.{name} must match the engine hook "
                    "signature `(self, node)`; extra, missing, or variadic "
                    "parameters fail only when a fault fires",
                )


@rule(
    "RPR012", "timers-declared-up-front",
    description=(
        "`wake_at_rounds` is snapshotted at run start, before "
        "`initialize`; assign it only from `__init__`-reachable code — "
        "later writes are silently ignored by the engine"
    ),
)
def check_timer_declaration(module: ModuleContext) -> Iterator[Finding]:
    for cls in module.classes():
        methods = class_methods(cls)
        writes: list[tuple[str, ast.AST]] = []
        for name, method in methods.items():
            for node in ast.walk(method):
                target: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if _is_self_wake_attr(t):
                            target = t
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    if _is_self_wake_attr(node.target):
                        target = node.target
                if target is not None:
                    writes.append((name, node))
        if not writes:
            continue
        reachable = set(TIMER_SETUP_METHODS)
        frontier = [m for m in TIMER_SETUP_METHODS if m in methods]
        while frontier:
            called = self_calls(methods[frontier.pop()])
            for callee in called:
                if callee in methods and callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
        for method_name, node in writes:
            if method_name not in reachable:
                yield module.finding(
                    node, "RPR012",
                    f"{cls.name}.{method_name} assigns self.wake_at_rounds "
                    "after setup: the engine snapshots timers at run start, "
                    "so this write is silently ignored",
                )


def _is_self_wake_attr(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute)
            and node.attr == "wake_at_rounds"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _declared_bulk_state(cls: ast.ClassDef) -> Optional[frozenset]:
    """The class-level ``bulk_state`` tuple of string names, if declared."""
    for stmt in cls.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "bulk_state":
                try:
                    names = ast.literal_eval(value)
                except (ValueError, TypeError):
                    return None
                if (isinstance(names, tuple)
                        and all(isinstance(n, str) for n in names)):
                    return frozenset(names)
                return None
    return None


@rule(
    "RPR013", "bulk-state-declared",
    description=(
        "a bulk kernel's round code may only rebind `self.<attr>` names "
        "listed in its `bulk_state` tuple — the bulk≡per-node equivalence "
        "oracle tracks exactly the declared state, so undeclared writes "
        "escape it"
    ),
)
def check_bulk_state_declared(module: ModuleContext) -> Iterator[Finding]:
    for cls in module.classes():
        declared = _declared_bulk_state(cls)
        if declared is None:
            continue
        methods = class_methods(cls)
        if "bulk_round" not in methods:
            continue
        reachable = {"bulk_round"}
        frontier = ["bulk_round"]
        while frontier:
            for callee in self_calls(methods[frontier.pop()]):
                if callee in methods and callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
        for name in sorted(reachable):
            for node in ast.walk(methods[name]):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr not in declared):
                        yield module.finding(
                            node, "RPR013",
                            f"{cls.name}.{name} rebinds self.{target.attr} "
                            "from bulk-round code but the attribute is not "
                            "in `bulk_state`; declare it or keep the "
                            "mutation out of the round path",
                        )
