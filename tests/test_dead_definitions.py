"""Every function and class defined under ``src/repro`` has a user.

A definition whose name appears nowhere in the repo except at its own
``def`` / ``class`` line is dead code: no caller, test, tool, example
or doc reaches it.  The scan is by name, so it is conservative: a name
that some other definition shares, or that any file mentions, counts
as used.
"""

import ast
import re
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Where a use of a definition may live.
_SCANNED_DIRS = ("src", "tests", "tools", "benchmarks", "simbench",
                 "examples", "docs")
_SCANNED_FILES = ("pyproject.toml", "setup.py")
_TEXT_SUFFIXES = {".py", ".md", ".json", ".yaml", ".yml", ".toml"}

#: Qualified-name patterns reached without their name being written out,
#: each with the reason.
ALLOWED = {
    "Session._run_*": "Session.run dispatches on "
                      "getattr(self, f'_run_{spec.kind}')",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _registered(node: ast.ClassDef) -> bool:
    """A simlint rule class, reached through the ``@register`` table."""
    return any(isinstance(decorator, ast.Name) and decorator.id == "register"
               for decorator in node.decorator_list)


def _definitions() -> list:
    """``(name, qualified name, location)`` of every def and class."""
    found = []

    def visit(node, prefix, location):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                qualified = f"{prefix}{name}"
                exempt = ((name.startswith("__") and name.endswith("__"))
                          or (isinstance(child, ast.ClassDef)
                              and _registered(child)))
                if not exempt:
                    found.append((name, qualified,
                                  f"{location}:{child.lineno}"))
                visit(child, f"{qualified}.", location)
            else:
                visit(child, prefix, location)

    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()), "",
              str(path.relative_to(REPO)))
    return found


def _word_counts() -> Counter:
    paths = [REPO / name for name in _SCANNED_FILES]
    for directory in _SCANNED_DIRS:
        paths.extend(path for path in (REPO / directory).rglob("*")
                     if path.suffix in _TEXT_SUFFIXES and path.is_file())
    counts = Counter()
    for path in paths:
        counts.update(_WORD.findall(path.read_text(errors="replace")))
    return counts


def test_every_definition_has_a_user():
    definitions = _definitions()
    defined = Counter(name for name, _, _ in definitions)
    words = _word_counts()
    dead = [f"{qualified} ({location})"
            for name, qualified, location in definitions
            if words[name] <= defined[name]
            and not any(fnmatch(qualified, pattern) for pattern in ALLOWED)]
    assert not dead, ("defined but never used: " + ", ".join(dead))


def test_every_allowlist_entry_matches_a_definition():
    qualified = [name for _, name, _ in _definitions()]
    stale = [pattern for pattern in ALLOWED
             if not any(fnmatch(name, pattern) for name in qualified)]
    assert not stale, f"allowlist entries match nothing: {stale}"
