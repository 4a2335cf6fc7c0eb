#!/usr/bin/env python
"""simbench correctness gate: every workload must report ``correct``.

Runs ``simbench/run.py --workload W --seconds 0`` once for each workload
``BENCHMARK.json`` declares -- one untraced simulation each -- and exits
1 unless every run's last stdout line is a JSON verdict with
``"correct": true`` and ``"failed": 0``.  ``run.py`` marks a run failed
when its outputs or its report SHA-256 differ from
``simbench/reference.json``, or when the seed-0 pins in ``baseline.json``
move, so this catches any change to a rendered byte or an event count.
It only reads ``simbench/``.

Invocation (wired up as ``make simbench-check`` and a CI job)::

    python tools/simbench_check.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(stdout: str) -> str:
    """Why a run's output is not a passing verdict (empty if it is)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not JSON: {lines[-1]!r}"
    if not isinstance(result, dict):
        return f"last line is not a JSON object: {lines[-1]!r}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return (f"correct={result.get('correct')!r}, "
                f"failed={result.get('failed')!r}")
    return ""


def main() -> int:
    workloads = [workload["name"] for workload in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    failures = 0
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, "simbench/run.py", "--workload", workload,
             "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True)
        reason = verdict(proc.stdout)
        if proc.returncode != 0 and not reason:
            reason = f"exit status {proc.returncode}"
        if reason:
            failures += 1
            print(f"FAIL {workload}: {reason}")
            sys.stdout.write(proc.stderr)
        else:
            print(f"ok   {workload}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
