#!/usr/bin/env python
"""Line-coverage floor for one ``repro`` subpackage (stdlib only).

The container has no ``coverage``/``pytest-cov``, so this tool measures
line coverage of a package under ``src/`` with a scoped ``sys.settrace``
hook: the global tracer only descends into frames whose code lives in
the target package, so the rest of the suite runs untraced (and
unslowed).  Executable lines come from the compiled code objects'
``co_lines`` tables.

Usage::

    PYTHONPATH=src python tools/diagnosis_coverage.py --floor 80
    PYTHONPATH=src python tools/diagnosis_coverage.py \
        --package repro.serve --floor 80

``--package`` selects the dotted package (default ``repro.diagnosis``,
the tool's original and namesake target); ``--tests`` overrides the
pytest target (default: ``tests/<last package component>``).  Exits
non-zero when total coverage falls below the floor.  Wired up as
``make coverage``, which enforces the floor on every package in the
Makefile's ``COVERAGE_PACKAGES``.
"""

from __future__ import annotations

import argparse
import sys
import threading
import types
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_executed: dict[str, set[int]] = {}
_prefix = ""


def _local_tracer(frame, event, arg):
    if event == "line":
        _executed.setdefault(frame.f_code.co_filename,
                             set()).add(frame.f_lineno)
    return _local_tracer


def _global_tracer(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_prefix):
        return _local_tracer(frame, event, arg)
    return None


def executable_lines(path: Path) -> set[int]:
    """All line numbers carrying executable code, nested scopes included."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        for _start, _end, line in current.co_lines():
            if line is not None:
                lines.add(line)
        stack.extend(const for const in current.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def run_suite(package: str, test_args: list[str]) -> int:
    """Import the package and run its tests under the scoped tracer."""
    # Drop pre-imported target modules so module-level lines
    # (imports, class bodies) execute -- and count -- under the tracer.
    for name in [name for name in sys.modules
                 if name == package or name.startswith(package + ".")]:
        del sys.modules[name]
    import importlib

    import pytest
    threading.settrace(_global_tracer)
    sys.settrace(_global_tracer)
    try:
        importlib.import_module(package)  # module-level coverage
        return pytest.main(test_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]


def report(package_dir: Path, floor: float) -> int:
    total_executable = 0
    total_covered = 0
    print(f"{'file':44s} {'lines':>6s} {'cov':>6s}")
    for path in sorted(package_dir.glob("*.py")):
        executable = executable_lines(path)
        covered = executable & _executed.get(str(path), set())
        total_executable += len(executable)
        total_covered += len(covered)
        share = len(covered) / len(executable) if executable else 1.0
        rel = path.relative_to(REPO)
        print(f"{str(rel):44s} {len(executable):6d} {share:6.1%}")
    total = total_covered / total_executable if total_executable else 1.0
    print(f"{'TOTAL':44s} {total_executable:6d} {total:6.1%}"
          f"   (floor {floor:.0%})")
    if total < floor:
        print(f"FAIL: {package_dir.name} coverage {total:.1%} is below "
              f"the {floor:.0%} floor", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--package", default="repro.diagnosis",
                        help="dotted package under src/ to measure "
                             "(default: repro.diagnosis)")
    parser.add_argument("--tests", default=None,
                        help="pytest target (default: tests/<package "
                             "tail>)")
    parser.add_argument("--floor", type=float, default=80.0,
                        help="minimum total coverage percent (default 80)")
    args = parser.parse_args()
    package_dir = REPO / "src" / Path(*args.package.split("."))
    if not package_dir.is_dir():
        print(f"FAIL: no package directory {package_dir}", file=sys.stderr)
        return 2
    tests = args.tests or f"tests/{args.package.split('.')[-1]}"
    global _prefix
    _prefix = str(package_dir)
    exit_code = run_suite(args.package, [tests, "-q", "--no-header"])
    if exit_code != 0:
        print(f"FAIL: {args.package} test suite failed", file=sys.stderr)
        return exit_code
    return report(package_dir, args.floor / 100.0)


if __name__ == "__main__":
    sys.exit(main())
