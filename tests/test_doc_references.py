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
