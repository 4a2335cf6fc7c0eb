"""Repo paths cited in the docs and in source comments must exist.

A rename that leaves a stale ``tests/...`` or ``src/...`` citation
behind is caught here instead of by a reader following a dead link.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: A repo-relative path under one of the top-level trees, ending in a
#: file suffix the repo ships.
_CITATION = re.compile(
    r"(?<![\w/.-])((?:tests|src|tools|docs|benchmarks|simbench|examples)"
    r"/[\w./-]*?\.(?:py|md|json|yaml|yml))(?![\w/])")


def _citing_files() -> list:
    files = sorted((REPO / "docs").rglob("*.md"))
    files.append(REPO / "README.md")
    files.extend(sorted((REPO / "src" / "repro").rglob("*.py")))
    return files


def _citations() -> list:
    found = []
    for path in _citing_files():
        for match in _CITATION.finditer(path.read_text()):
            found.append((path.relative_to(REPO).as_posix(),
                          match.group(1)))
    return found


def test_scan_finds_citations():
    assert len(_citations()) > 10


@pytest.mark.parametrize("source", sorted({source for source, _
                                           in _citations()}))
def test_cited_paths_exist(source):
    missing = sorted({cited for origin, cited in _citations()
                      if origin == source and not (REPO / cited).exists()})
    assert not missing, f"{source} cites missing paths: {missing}"


def _cli_doc_sections() -> dict:
    """``docs/cli.md`` split on its ``## `` headings, keyed by the
    subcommand a heading names ("telemetry" for the shared flag group)."""
    sections, key = {}, None
    for line in (REPO / "docs" / "cli.md").read_text().splitlines():
        if line.startswith("## "):
            words = line.strip("#` ").split()
            key = words[1] if words[0] == "presto" else words[0].lower()
            sections[key] = ""
        elif key is not None:
            sections[key] += line + "\n"
    return sections


def _parser_flags() -> dict:
    import argparse

    from repro.cli import _build_parser
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {command: [option for action in parser._actions
                      for option in action.option_strings
                      if option not in ("-h", "--help")]
            for command, parser in subparsers.choices.items()}


@pytest.mark.parametrize("command", sorted(_parser_flags()))
def test_cli_doc_lists_every_flag(command):
    """Each flag a subcommand's parser exposes appears in that
    subcommand's section of docs/cli.md; serve, ctl and stream may
    leave their telemetry flags to the shared telemetry section."""
    sections = _cli_doc_sections()
    text = sections[command]
    if command in ("serve", "ctl", "stream"):
        text += sections["telemetry"]
    missing = [flag for flag in _parser_flags()[command]
               if not re.search(rf"(?<![\w-]){flag}(?![\w-])", text)]
    assert not missing, f"docs/cli.md `presto {command}` lacks {missing}"
