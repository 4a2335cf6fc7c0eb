"""Snapshot of the ``presto`` argument-parser surface.

Every subcommand's options -- option strings, dest, default, type,
choices, nargs, action and metavar -- are recorded in
``data/parser_surface.json``.  A flag that is renamed, dropped, added
or whose default moves shows up here as a diff; regenerate with
``pytest tests/golden --update-golden`` only for an intentional change.
"""

import argparse
import json
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).parent / "data" / "parser_surface.json"


def _describe(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": None if kind is None else getattr(kind, "__name__",
                                                  repr(kind)),
        "choices": None if action.choices is None
        else list(action.choices),
        "nargs": action.nargs,
        "action": type(action).__name__,
        "metavar": action.metavar,
        "required": action.required,
    }


def parser_surface() -> dict:
    from repro.cli import _build_parser
    parser = _build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: [_describe(action) for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)]
            for name, sub in sorted(subparsers.choices.items())}


def test_parser_surface_matches_snapshot(request):
    surface = json.loads(json.dumps(parser_surface()))
    if request.config.getoption("--update-golden"):
        SNAPSHOT.write_text(json.dumps(surface, indent=2,
                                       sort_keys=True) + "\n")
        pytest.skip("parser surface snapshot regenerated")
    recorded = json.loads(SNAPSHOT.read_text())
    assert sorted(surface) == sorted(recorded)
    for command in recorded:
        assert surface[command] == recorded[command], command
