"""CLI tests for ``presto lint``."""

import json
from pathlib import Path

from repro.cli import main
from repro.lint import RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", "--root", str(REPO)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_lint_findings_exit_one(capsys):
    fixture = str(FIXTURES / "wall_clock.py")
    assert main(["lint", fixture]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "finding(s)" in out


def test_lint_json_output(capsys):
    fixture = str(FIXTURES / "unseeded_rng.py")
    assert main(["lint", "--json", fixture]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert {f["rule"] for f in payload["findings"]} == {"unseeded-rng"}


def test_lint_select(capsys):
    fixture = str(FIXTURES / "wall_clock.py")
    assert main(["lint", "--select", "set-iteration", fixture]) == 0
    assert main(["lint", "--select", "wall-clock", fixture]) == 1


def test_lint_ignore(capsys):
    fixture = str(FIXTURES / "wall_clock.py")
    assert main(["lint", "--ignore", "wall-clock", fixture]) == 0


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_lint_unknown_rule_exits_two(capsys):
    assert main(["lint", "--select", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_missing_path_exits_two(capsys):
    assert main(["lint", "does/not/exist.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_findings_carry_file_line_col(capsys):
    fixture = FIXTURES / "silent_except.py"
    assert main(["lint", str(fixture)]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    # file:line:col: rule [severity] message
    assert first.count(":") >= 3
    assert "silent-except" in first
