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

Each passing run prints one line with its ``wall_ms_per_unit``,
``peak_rss_mb`` and ``events_per_unit``, so the log shows the figures
without the snapshot.  Its result line is also written, as ``{workload:
result}``, to ``SIMBENCH.json`` at the repository root: the host-time
snapshot ``presto trend`` compares across runs (CI uploads it).

Invocation (wired up as ``make simbench-check`` and a CI job)::

    python tools/simbench_check.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "SIMBENCH.json"


def _parse(stdout: str) -> tuple:
    """``(result, reason)``: the run's last-line JSON object (None if
    there is none) and why it is not a passing verdict (empty if it
    is)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"last line is not JSON: {lines[-1]!r}"
    if not isinstance(result, dict):
        return None, f"last line is not a JSON object: {lines[-1]!r}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return result, (f"correct={result.get('correct')!r}, "
                        f"failed={result.get('failed')!r}")
    return result, ""


#: The end-to-end metrics a passing line shows, with their formats;
#: ``events_per_unit`` is exact, so it prints in full (``repr``).
SHOWN = (("wall_ms_per_unit", ".4g"), ("peak_rss_mb", ".1f"),
         ("events_per_unit", ""))


def passing_line(workload: str, result: dict) -> str:
    """The log line of a passing run: its headline metrics."""
    metrics = result.get("metrics", {})
    shown = []
    for name, spec in SHOWN:
        value = metrics.get(name, {}).get("value")
        text = "-" if value is None else format(value, spec)
        shown.append(f"{name} {text}")
    return f"ok   {workload}: " + ", ".join(shown)


def snapshot(stdouts: dict) -> dict:
    """``{workload: result}`` of every passing run in ``stdouts``
    (``workload -> stdout``): the ``SIMBENCH.json`` payload."""
    snap = {}
    for workload, stdout in stdouts.items():
        result, reason = _parse(stdout)
        if not reason:
            snap[workload] = result
    return snap


def main() -> int:
    workloads = [workload["name"] for workload in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    failures = 0
    stdouts = {}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, "simbench/run.py", "--workload", workload,
             "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True)
        stdouts[workload] = proc.stdout
        result, reason = _parse(proc.stdout)
        if proc.returncode != 0 and not reason:
            reason = f"exit status {proc.returncode}"
        if reason:
            failures += 1
            print(f"FAIL {workload}: {reason}")
            sys.stdout.write(proc.stderr)
        else:
            print(passing_line(workload, result))
    SNAPSHOT.write_text(json.dumps(snapshot(stdouts), indent=2,
                                   sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
