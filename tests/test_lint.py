"""Tests for ``repro.lint`` — the AST-based invariant checker.

Three layers:

* fixture-driven rule tests: every rule has a ``*_flagged.py`` fixture whose
  violations it must find (with pinned line numbers) and a ``*_clean.py``
  fixture it must pass — the true-positive/true-negative contract;
* machinery tests: suppressions (used/unused/malformed/unknown, and their
  interaction with partial ``--rule`` runs), config loading (kebab-case
  keys, the 3.10 TOML fallback parser's parity with ``tomllib``), stable
  JSON output, rule selection;
* the self-check: ``repro lint src tests`` over this repository exits 0,
  and the exact entropy-leak pattern PR 5 had to hand-hunt in
  ``quality_report`` is caught by RPR001 when re-introduced in a temp file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    ERROR,
    RULES,
    SUPPRESSION_RULE_ID,
    Finding,
    LintConfig,
    format_json,
    format_text,
    has_errors,
    lint_paths,
    load_config,
    parse_lint_table,
    select_rules,
)
from repro.lint.config import config_from_mapping, path_is_under

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: Config used when linting fixtures: every path counts as library code and
#: nothing is wall-clock exempt, so the scoped rules run on the fixtures.
FIXTURE_CONFIG = LintConfig(library_paths=("",), wallclock_exempt=(),
                            exclude=())

#: (fixture stem, rule id to run, expected finding lines) — the pinned
#: true-positive contract of every rule.
FLAGGED = [
    ("rpr000_flagged", None, [4]),
    ("rpr001_flagged", "RPR001", [9, 10, 11]),
    ("rpr002_flagged", "RPR002", [4, 9, 10]),
    ("rpr003_flagged", "RPR003", [9, 10, 11, 12]),
    ("rpr004_flagged", "RPR004", [5, 6, 7, 8]),
    ("rpr011_flagged", "RPR011", [9, 12]),
    ("rpr012_flagged", "RPR012", [9, 12, 18]),
    ("rpr013_flagged", "RPR013", [9, 14]),
    ("rpr020_flagged", "RPR020", [19, 23, 24, 25]),
    ("rpr021_flagged", "RPR021", [8, 10, 11]),
]

CLEAN = [
    ("rpr001_clean", "RPR001"),
    ("rpr002_clean", "RPR002"),
    ("rpr003_clean", "RPR003"),
    ("rpr004_clean", "RPR004"),
    ("rpr011_clean", "RPR011"),
    ("rpr012_clean", "RPR012"),
    ("rpr013_clean", "RPR013"),
    ("rpr020_clean", "RPR020"),
    ("rpr021_clean", "RPR021"),
]


def lint_fixture(stem, rules, config=FIXTURE_CONFIG):
    path = FIXTURES / f"{stem}.py"
    assert path.is_file(), f"missing fixture {path}"
    return lint_paths([str(path)], root=REPO_ROOT, config=config,
                      rules=rules)


class TestRuleFixtures:
    @pytest.mark.parametrize("stem,rule_id,lines", FLAGGED,
                             ids=[f[0] for f in FLAGGED])
    def test_flagged_fixture_yields_expected_findings(self, stem, rule_id,
                                                      lines):
        rules = [rule_id] if rule_id else None
        findings = lint_fixture(stem, rules)
        expected_rule = rule_id or "RPR000"
        assert [f.rule for f in findings] == [expected_rule] * len(lines)
        assert [f.line for f in findings] == lines

    @pytest.mark.parametrize("stem,rule_id", CLEAN, ids=[c[0] for c in CLEAN])
    def test_clean_fixture_passes_its_rule(self, stem, rule_id):
        assert lint_fixture(stem, [rule_id]) == []

    @pytest.mark.parametrize("stem,rule_id", CLEAN, ids=[c[0] for c in CLEAN])
    def test_clean_fixture_passes_all_rules(self, stem, rule_id):
        # Clean fixtures are clean under the *whole* rule set, not just
        # their own rule — no collateral findings.
        assert lint_fixture(stem, None) == []

    def test_findings_carry_fixture_relative_paths(self):
        findings = lint_fixture("rpr001_flagged", ["RPR001"])
        assert all(f.path == "tests/fixtures/lint/rpr001_flagged.py"
                   for f in findings)
        assert all(f.severity == ERROR for f in findings)

    def test_scoped_rules_skip_non_library_paths(self):
        # Under the repo config the fixture dir is not a library path, so
        # the determinism rules never even run there.
        config = LintConfig(library_paths=("src",), exclude=())
        assert lint_fixture("rpr001_flagged", ["RPR001"], config) == []

    def test_wallclock_exemption(self):
        config = LintConfig(library_paths=("",), exclude=(),
                            wallclock_exempt=("tests/fixtures",))
        assert lint_fixture("rpr003_flagged", ["RPR003"], config) == []

    def test_seed_boundary_exempts_rpr001(self):
        config = LintConfig(
            library_paths=("",), exclude=(),
            seed_boundaries=("tests/fixtures/lint/rpr001_flagged.py",),
        )
        assert lint_fixture("rpr001_flagged", ["RPR001"], config) == []


class TestSuppressions:
    def test_used_suppression_silences_and_is_not_reported(self):
        findings = lint_fixture("rpr090_clean",
                                ["RPR001", SUPPRESSION_RULE_ID])
        assert findings == []

    def test_malformed_unknown_and_unused_are_reported(self):
        findings = lint_fixture("rpr090_flagged",
                                ["RPR001", SUPPRESSION_RULE_ID])
        assert [f.rule for f in findings] == [SUPPRESSION_RULE_ID] * 3
        messages = {f.line: f.message for f in findings}
        assert "malformed" in messages[3]
        assert "RPR999" in messages[4]
        assert "unused" in messages[5]

    def test_unused_not_reported_when_named_rule_did_not_run(self):
        # A partial `--rule RPR002` run must not call the RPR001
        # suppression stale: RPR001 never ran, so nothing is known.
        findings = lint_fixture("rpr090_flagged",
                                ["RPR002", SUPPRESSION_RULE_ID])
        assert [f.line for f in findings] == [3, 4]  # malformed + unknown

    def test_hygiene_findings_dropped_when_rpr090_not_selected(self):
        findings = lint_fixture("rpr090_flagged", ["RPR001"])
        assert findings == []

    def test_pr5_entropy_leak_pattern_is_caught(self, tmp_path):
        # The exact bug PR 5 hand-hunted: quality_report's OS-entropy
        # fallback. Re-introduce it in a temp library file; RPR001 must
        # catch it.
        src = tmp_path / "src"
        src.mkdir()
        leak = src / "quality.py"
        leak.write_text(
            "from repro.rng import ensure_rng\n"
            "\n"
            "\n"
            "def quality_report(shortcut, rng=None):\n"
            "    r = ensure_rng(None)\n"
            "    return [r.random() for _ in range(4)]\n",
            encoding="utf-8",
        )
        config = LintConfig(library_paths=("src",))
        findings = lint_paths([str(leak)], root=tmp_path, config=config,
                              rules=["RPR001"])
        assert [(f.rule, f.line) for f in findings] == [("RPR001", 5)]
        assert has_errors(findings)


class TestSelfCheck:
    def test_repository_is_lint_clean(self):
        findings = lint_paths(["src", "tests"], root=REPO_ROOT)
        assert findings == [], format_text(findings)

    def test_cli_self_check_exits_zero(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src", "tests"]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_repo_config_excludes_fixtures(self):
        config = load_config(REPO_ROOT)
        assert "tests/fixtures/lint" in config.exclude
        assert "src/repro/rng.py" in config.seed_boundaries


class TestOutputFormats:
    def findings(self):
        return lint_fixture("rpr001_flagged", ["RPR001"])

    def test_json_is_byte_stable_and_sorted(self):
        findings = self.findings()
        first = format_json(findings)
        second = format_json(list(reversed(findings)))
        assert first == second
        payload = json.loads(first)
        assert payload == sorted(
            payload, key=lambda f: (f["path"], f["line"], f["col"], f["rule"])
        )
        # Fixed key order makes the output assertable byte-for-byte.
        assert list(payload[0]) == ["path", "line", "col", "rule",
                                    "severity", "message"]

    def test_text_format_summary_lines(self):
        findings = self.findings()
        text = format_text(findings)
        assert text.endswith("3 error(s), 0 warning(s)")
        assert "rpr001_flagged.py:9:" in text
        assert format_text([]) == "clean: no findings"

    def test_warn_config_downgrades_severity(self):
        config = LintConfig(library_paths=("",), exclude=(),
                            warn=("RPR001",))
        findings = lint_fixture("rpr001_flagged", ["RPR001"], config)
        assert findings and all(f.severity == "warning" for f in findings)
        assert not has_errors(findings)

    def test_findings_sort_and_dedup(self):
        a = Finding("a.py", 1, 1, "RPR001", "m", ERROR)
        b = Finding("a.py", 1, 1, "RPR001", "different message", ERROR)
        assert a == b  # message is not part of identity
        assert len({a, b}) == 1
        c = Finding("a.py", 2, 1, "RPR001", "m", ERROR)
        assert sorted([c, a]) == [a, c]


class TestConfig:
    def test_kebab_case_keys_normalize(self):
        config = config_from_mapping({
            "library-paths": ["src"],
            "wallclock-exempt": ["benchmarks"],
            "seed-boundaries": ["src/repro/rng.py"],
        })
        assert config.library_paths == ("src",)
        assert config.seed_boundaries == ("src/repro/rng.py",)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_mapping({"frobnicate": []})

    def test_fallback_toml_parser_matches_tomllib(self):
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        table = parse_lint_table(text)
        if sys.version_info >= (3, 11):
            import tomllib
            reference = tomllib.loads(text)["tool"]["repro"]["lint"]
            assert table == reference
        assert table["exclude"] == ["tests/fixtures/lint"]
        assert table["library-paths"] == ["src"]

    def test_path_is_under(self):
        assert path_is_under("src/repro/cli.py", "src")
        assert path_is_under("src/repro/cli.py", "src/repro/cli.py")
        assert not path_is_under("srcx/cli.py", "src")
        assert path_is_under("anything.py", "")


class TestRuleSelection:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS"):
            select_rules(LintConfig(), ["BOGUS"])

    def test_rule_filter_is_case_insensitive(self):
        rules = select_rules(LintConfig(), ["rpr001"])
        assert [r.rule_id for r in rules] == ["RPR001"]

    def test_ignore_config_drops_rule(self):
        rules = select_rules(LintConfig(ignore=("RPR001",)))
        assert "RPR001" not in [r.rule_id for r in rules]

    def test_registry_covers_issue_rules(self):
        expected = {"RPR000", "RPR001", "RPR002", "RPR003", "RPR004",
                    "RPR011", "RPR012", "RPR013", "RPR020", "RPR021",
                    "RPR090"}
        assert expected <= set(RULES)


class TestCLI:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR011", "RPR020", "RPR090"):
            assert rule_id in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "BOGUS", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_findings_exit_one_with_json(self, capsys):
        # Rooted at the fixture dir (no pyproject there → default config),
        # so only the ``--rule`` filter decides what is reported.
        fixture = str(FIXTURES / "rpr011_flagged.py")
        code = main(["lint", fixture, "--rule", "RPR011",
                     "--format", "json", "--root", str(FIXTURES)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload] == ["RPR011"] * 2

    def test_repo_config_lints_a_fixture_named_explicitly(self, capsys):
        # ``exclude`` filters directory walks only: a file named on the
        # command line is linted, as ruff does without --force-exclude.
        fixture = str(FIXTURES / "rpr011_flagged.py")
        code = main(["lint", fixture, "--format", "json",
                     "--root", str(REPO_ROOT)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [(f["rule"], f["line"]) for f in payload] == [
            ("RPR011", 9), ("RPR011", 12),
        ]

    def test_repo_config_skips_fixtures_when_walking(self, capsys):
        assert main(["lint", str(FIXTURES.parent),
                     "--root", str(REPO_ROOT)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, capsys):
        fixture = str(FIXTURES / "rpr011_clean.py")
        assert main(["lint", fixture, "--root", str(FIXTURES)]) == 0
