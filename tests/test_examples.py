"""Smoke tests: every example script runs end-to-end and prints its report,
and every root document the code names exists."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "Kogan-Parter shortcut" in out
    assert "structurally valid          : True" in out


def test_mst_and_mincut_example():
    out = run_example("mst_and_mincut.py")
    assert "kogan-parter" in out
    assert "ratio 1.000" in out


def test_mst_and_mincut_example_is_deterministic():
    # Every random draw in the example is seeded, so two runs print the
    # same report byte for byte (the per-phase charged rounds included).
    assert run_example("mst_and_mincut.py") == run_example("mst_and_mincut.py")


def test_distributed_construction_example():
    out = run_example("distributed_construction.py")
    assert "known diameter" in out
    assert "spanning verification      : True" in out


def test_reproduce_experiments_single():
    out = run_example("reproduce_experiments.py", "--fast", "--experiment", "E12")
    assert "E12" in out
    assert "probability" in out
    # --fast holds for a single experiment too: E12's fast tier samples the
    # n=200 lower-bound instance (231 vertices), not its default n=400 (439).
    assert {line.split()[0] for line in out.splitlines() if line[:1].isdigit()} == {"231"}


def test_named_root_docs_exist():
    named = set()
    for top in ("src", "examples", "benchmarks", "tests", ".github"):
        for path in (REPO_ROOT / top).rglob("*"):
            if path.is_file() and "fixtures" not in path.relative_to(REPO_ROOT).parts:
                text = path.read_text(encoding="utf-8", errors="ignore")
                named.update(re.findall(r"\b[A-Z][A-Z0-9_]*\.md\b", text))
    assert sorted(d for d in named if not (REPO_ROOT / d).is_file()) == []
