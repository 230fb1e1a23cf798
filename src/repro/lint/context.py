"""Per-module analysis context shared by all rules.

A :class:`ModuleContext` wraps one parsed source file and precomputes the
facts every rule keeps re-deriving from a bare AST:

* an **import table** mapping local names to canonical dotted names
  (``from ..rng import ensure_rng`` binds ``ensure_rng`` to
  ``rng.ensure_rng``; ``import random as rnd`` binds ``rnd`` to
  ``random``), so rules match *what a name refers to*, not how the module
  spelled the import;
* a **parent map** (child AST node -> enclosing node), so rules can ask
  "is this expression directly consumed by ``sorted``?" without threading
  state through a visitor;
* the config-derived **path classification** (library code? wall-clock
  exempt? seed boundary?) that scoped rules consult.

Name resolution is deliberately syntactic — no type inference, no module
execution.  Rules therefore match on canonical dotted *suffixes* (a call
resolved to ``rng.ensure_rng`` matches the target ``ensure_rng``), which is
exactly the right strength for invariant linting: false negatives require
actively aliasing a banned function through a variable, which code review
catches, while false positives stay near zero.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .config import LintConfig, path_is_under
from .findings import ERROR, Finding


class ModuleContext:
    """One parsed module plus the precomputed lookup structures."""

    def __init__(self, relpath: str, source: str, tree: ast.Module,
                 config: LintConfig) -> None:
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.config = config
        #: alias -> dotted module name, from ``import x.y as z``.
        self.module_aliases: dict[str, str] = {}
        #: local name -> ``module.original``, from ``from m import x as y``
        #: (relative dots stripped: ``from ..rng import f`` -> ``rng.f``).
        self.from_imports: dict[str, str] = {}
        self._collect_imports()
        self._parents: Optional[dict[ast.AST, ast.AST]] = None

    # -- path classification -------------------------------------------
    @property
    def is_library(self) -> bool:
        return any(path_is_under(self.relpath, p)
                   for p in self.config.library_paths)

    @property
    def is_wallclock_exempt(self) -> bool:
        return any(path_is_under(self.relpath, p)
                   for p in self.config.wallclock_exempt)

    @property
    def is_seed_boundary(self) -> bool:
        return any(path_is_under(self.relpath, p)
                   for p in self.config.seed_boundaries)

    # -- imports and name resolution -----------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.module_aliases[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    dotted = f"{module}.{alias.name}" if module else alias.name
                    self.from_imports[local] = dotted

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a ``Name``/``Attribute`` chain, or None.

        The head of the chain is looked up in the import table, so
        ``rnd.Random`` resolves to ``random.Random`` under
        ``import random as rnd``.
        """
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.from_imports:
                return self.from_imports[name]
            if name in self.module_aliases:
                return self.module_aliases[name]
            return name
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def resolves_to(self, node: ast.AST, target: str) -> bool:
        """True when ``node`` resolves to ``target`` or a ``.target`` suffix."""
        name = self.resolve(node)
        if name is None:
            return False
        return name == target or name.endswith("." + target)

    # -- structure helpers ---------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The enclosing AST node (lazily computed once per module)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[child] = outer
            self._parents = parents
        return self._parents.get(node)

    def classes(self) -> Iterator[ast.ClassDef]:
        """Every class definition in the module, at any nesting depth."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def calls(self) -> Iterator[ast.Call]:
        """Every call expression in the module."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node

    def finding(self, node: ast.AST, rule_id: str, message: str,
                severity: str = ERROR) -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s location."""
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
            severity=severity,
        )


def class_methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    """The directly defined (non-nested) methods of a class, by name."""
    methods: dict[str, ast.FunctionDef] = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = stmt  # type: ignore[assignment]
    return methods


def self_calls(func: ast.FunctionDef) -> set[str]:
    """Names of methods invoked as ``self.<name>(...)`` inside ``func``."""
    called: set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            called.add(node.func.attr)
    return called
