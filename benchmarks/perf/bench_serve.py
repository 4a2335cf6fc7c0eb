#!/usr/bin/env python
"""Deterministic cost pins of the perf scenarios (``make bench-check``).

The scenarios in :mod:`scenarios` are deterministic: their kernel event
counts and simulated end times must only change when the model changes.
``--check`` replays the pinned scenarios -- ``serve64``,
``serve64_hot_raw``, ``stream64``, ``ctl_ops_chaos32`` and ``link10k``
-- and asserts those figures against ``baseline.json``; CI runs that
instead of wall-clock assertions, which would flake.  Host time is
simbench's to measure (``simbench/``, ``make simbench-check``).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py --check
    PYTHONPATH=src python benchmarks/perf/bench_serve.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import scenarios  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def measure() -> dict:
    """The pinned figures of every checked scenario, shaped like
    ``baseline.json``."""
    return {
        "serve": {name: scenarios.run_serve_scenario(name)
                  for name in scenarios.CHECK_SCENARIOS},
        "stream": {name: scenarios.run_stream_scenario(name)
                   for name in scenarios.STREAM_CHECK_SCENARIOS},
        "ctl": {name: scenarios.run_ctl_scenario(name)
                for name in scenarios.CTL_CHECK_SCENARIOS},
        "link10k": scenarios.run_link_microbench(),
    }


def _rows(payload: dict):
    """``(label, figures)`` per scenario of a baseline-shaped payload."""
    for name, policies in sorted(payload["serve"].items()):
        for policy, figures in sorted(policies.items()):
            yield f"{name}[{policy}]", figures
    for section in ("stream", "ctl"):
        yield from sorted(payload[section].items())
    yield "link10k", payload["link10k"]


def check_against_baseline() -> int:
    """CI perf smoke: replay the pinned scenarios, assert event counts.

    Event counts (not wall seconds) keep the check flake-free: the DES
    is deterministic, so a changed count means the model or the kernel's
    event structure changed -- which must be an acknowledged decision
    (``--update-baseline``), never an accident.
    """
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run --update-baseline",
              file=sys.stderr)
        return 2
    expected = dict(_rows(json.loads(BASELINE_PATH.read_text())))
    failures = []
    checked = []
    for label, figures in _rows(measure()):
        for key, value in figures.items():
            pinned = expected.get(label, {}).get(key)
            if value != pinned:
                failures.append(f"{label}.{key}: expected {pinned}, "
                                f"got {value}")
        checked.append(f"{label} events={figures['events']}")
    if failures:
        print("bench-check FAILED (deterministic cost drifted):")
        for failure in failures:
            print(f"  {failure}")
        print("intentional? refresh with "
              "`python benchmarks/perf/bench_serve.py --update-baseline`")
        return 1
    print("bench-check OK: " + ", ".join(checked))
    return 0


def update_baseline() -> int:
    BASELINE_PATH.write_text(json.dumps(measure(), indent=2,
                                        sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="replay the pinned scenarios and assert their "
                           "deterministic event counts (CI smoke)")
    mode.add_argument("--update-baseline", action="store_true",
                      help="refresh benchmarks/perf/baseline.json")
    args = parser.parse_args()
    if args.check:
        return check_against_baseline()
    return update_baseline()


if __name__ == "__main__":
    sys.exit(main())
