"""Command-line front end for simlint (``presto lint``; ``make lint``
runs ``python -m repro.cli lint``).  The rule catalog and the pragma
syntax are documented in ``docs/lint.md``.

Exit codes follow the CI-gate convention: ``0`` clean, ``1`` findings,
``2`` usage errors (no such path, unknown rule id).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .framework import (
    DEFAULT_CONFIG,
    LintConfig,
    RULES,
    discover,
    findings_to_json,
    lint_paths,
    render_text,
    rule_catalog,
)

#: Directories linted when no explicit path is given (the same tree the
#: acceptance gate covers).
DEFAULT_TARGETS = ("src", "tools", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="static analyzer for the repo's DES discipline "
                    "(determinism, seeding, telemetry wall)")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint (default: "
                             + " ".join(DEFAULT_TARGETS) + ")")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON (schema 1)")
    parser.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="RULES", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        dest="list_rules",
                        help="print the rule catalog and exit")
    parser.add_argument("--root", metavar="DIR", default=None,
                        help="repo root findings are reported relative "
                             "to (default: current directory)")
    return parser


def _parse_rule_list(text: str) -> List[str]:
    rule_ids = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [rule_id for rule_id in rule_ids if rule_id not in RULES]
    if unknown:
        raise SystemExit(
            f"simlint: unknown rule id(s): {', '.join(sorted(unknown))}"
            f" (known: {', '.join(sorted(RULES))})")
    return rule_ids


def _print_catalog() -> None:
    for rule in rule_catalog():
        print(f"{rule.id:18s} [{rule.severity}] {rule.title}")


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_catalog()
        return 0

    root = Path(args.root) if args.root else Path.cwd()
    if args.paths:
        targets = [Path(path) for path in args.paths]
        missing = [str(path) for path in targets if not path.exists()]
        if missing:
            print(f"simlint: no such path: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
    else:
        targets = [root / name for name in DEFAULT_TARGETS
                   if (root / name).is_dir()]
        if not targets:
            print("simlint: none of the default targets "
                  f"({', '.join(DEFAULT_TARGETS)}) exist under {root}",
                  file=sys.stderr)
            return 2

    config = DEFAULT_CONFIG
    if args.select or args.ignore:
        try:
            select = (tuple(_parse_rule_list(args.select))
                      if args.select else None)
            ignore = (tuple(_parse_rule_list(args.ignore))
                      if args.ignore else ())
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        config = LintConfig(select=select, ignore=ignore,
                            per_path=DEFAULT_CONFIG.per_path)

    checked = len(discover(targets))
    findings = lint_paths(targets, root=root, config=config)
    if args.as_json:
        print(json.dumps(findings_to_json(findings, checked),
                         indent=2, sort_keys=True))
    else:
        print(render_text(findings, checked))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(run())
