"""The lint driver: file discovery, rule dispatch, output formatting.

``lint_paths`` is the library entry point (the CLI and the test suite both
call it): walk the given paths, parse each ``.py`` file once, run every
applicable rule over the shared :class:`ModuleContext`, apply inline
suppressions, and return the findings sorted by ``(path, line, col,
rule)``.  The sort plus the fixed JSON key order make ``--format json``
byte-stable, which the CI lane and ``tests/test_lint.py`` rely on.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .config import LintConfig, load_config, path_is_under
from .context import ModuleContext
from .findings import ERROR, WARNING, Finding
from .registry import (
    RULES,
    Rule,
    SCOPE_LIBRARY,
    SCOPE_NON_WALLCLOCK,
)
from .registry import register
from .suppress import SUPPRESSION_RULE_ID, apply_suppressions, collect_suppressions

# Importing the rule packs populates the registry.
from . import congest as _congest  # noqa: F401
from . import determinism as _determinism  # noqa: F401
from . import purity as _purity  # noqa: F401

#: Synthesized rule id for files the parser rejects.
PARSE_ERROR_RULE = "RPR000"

register(
    PARSE_ERROR_RULE,
    "parse-error",
    description="the file must parse before any invariant can be checked",
)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def discover_files(paths: Sequence[str], root: Path,
                   config: LintConfig) -> list[Path]:
    """The ``.py`` files under ``paths``, sorted.

    ``exclude`` prefixes filter only the files found by walking a
    directory: a file named in ``paths`` is always linted (ruff's default
    without ``--force-exclude``).
    """
    files: set[Path] = set()
    for entry in paths:
        target = Path(entry)
        if not target.is_absolute():
            target = root / target
        if target.is_file() and target.suffix == ".py":
            files.add(target)
        elif target.is_dir():
            files.update(
                p for p in target.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(path_is_under(_relpath(p, root), prefix)
                            for prefix in config.exclude)
            )
    return sorted(files)


def select_rules(config: LintConfig,
                 only: Optional[Iterable[str]] = None) -> list[Rule]:
    """The enabled rules after ``select``/``ignore``/``--rule`` filtering."""
    requested = {r.upper() for r in only} if only else None
    if requested is not None:
        unknown = requested - set(RULES)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}"
            )
    enabled = []
    for rule_id, entry in sorted(RULES.items()):
        if config.select and rule_id not in config.select:
            continue
        if rule_id in config.ignore:
            continue
        if requested is not None and rule_id not in requested:
            continue
        enabled.append(entry)
    return enabled


def _applies(entry: Rule, module: ModuleContext) -> bool:
    if entry.scope == SCOPE_LIBRARY:
        return module.is_library
    if entry.scope == SCOPE_NON_WALLCLOCK:
        return not module.is_wallclock_exempt
    return True


def _severity(entry: Rule, config: LintConfig) -> str:
    return WARNING if entry.rule_id in config.warn else entry.severity


def lint_file(path: Path, root: Path, config: LintConfig,
              rules: Sequence[Rule]) -> list[Finding]:
    """Lint one file: parse, run applicable rules, apply suppressions."""
    relpath = _relpath(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(relpath, exc.lineno or 1, (exc.offset or 0) + 1,
                        PARSE_ERROR_RULE, f"file does not parse: {exc.msg}",
                        ERROR)]
    module = ModuleContext(relpath, source, tree, config)
    findings: list[Finding] = []
    ran: set[str] = set()
    for entry in rules:
        if entry.check is None or not _applies(entry, module):
            continue
        ran.add(entry.rule_id)
        severity = _severity(entry, config)
        for finding in entry.run(module):
            if finding.severity != severity:
                finding = Finding(finding.path, finding.line, finding.col,
                                  finding.rule, finding.message, severity)
            findings.append(finding)
    suppressions = collect_suppressions(source)
    result = apply_suppressions(findings, suppressions, relpath,
                                enabled=frozenset(ran))
    hygiene_on = any(e.rule_id == SUPPRESSION_RULE_ID for e in rules)
    hygiene_severity = _severity(RULES[SUPPRESSION_RULE_ID], config)
    final: list[Finding] = []
    for finding in result:
        if finding.rule == SUPPRESSION_RULE_ID:
            if not hygiene_on:
                continue
            if finding.severity != hygiene_severity:
                finding = Finding(finding.path, finding.line, finding.col,
                                  finding.rule, finding.message,
                                  hygiene_severity)
        final.append(finding)
    return final


def lint_paths(
    paths: Sequence[str],
    *,
    root: Optional[Path] = None,
    config: Optional[LintConfig] = None,
    rules: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint ``paths`` and return all findings, sorted and deduplicated."""
    root = Path.cwd() if root is None else Path(root)
    if config is None:
        config = load_config(root)
    enabled = select_rules(config, rules)
    findings: set[Finding] = set()
    for path in discover_files(paths, root, config):
        findings.update(lint_file(path, root, config, enabled))
    return sorted(findings)


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity == ERROR for f in findings)


def format_text(findings: Sequence[Finding]) -> str:
    """Human-readable report (one line per finding plus a summary)."""
    lines = [f.render() for f in findings]
    errors = sum(1 for f in findings if f.severity == ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append(f"{errors} error(s), {warnings} warning(s)")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    """Byte-stable JSON report (sorted findings, fixed key order)."""
    return json.dumps([f.to_dict() for f in sorted(findings)], indent=2,
                      sort_keys=False)


def format_rule_table() -> str:
    """The registered rules as an aligned text table (``--list-rules``)."""
    rows = [(r.rule_id, r.name, r.scope, r.severity)
            for _, r in sorted(RULES.items())]
    width_name = max(len(row[1]) for row in rows)
    lines = [
        f"{rule_id}  {name:<{width_name}}  [{scope}/{severity}]"
        for rule_id, name, scope, severity in rows
    ]
    return "\n".join(lines)
