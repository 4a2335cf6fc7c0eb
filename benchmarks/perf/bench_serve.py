#!/usr/bin/env python
"""Kernel performance suite (``make bench`` / ``make bench-check``).

Runs the pinned scenarios from :mod:`scenarios` and writes
``BENCH_serve.json``:

* **sweep**       -- MP3+FLAC strategy sweep (profiling hot path);
* **serve**       -- the scaled serve scenarios (8/64/128 tenants and
                     the storage-thrashing hot-raw variant);
* **stream**      -- the streaming-inference scenarios (per-request
                     latency SLOs, bounded queues);
* **ctl**         -- the control-plane chaos scenario (long-horizon
                     operations trace under the seeded fault timeline);
* **link10k**     -- the pure-kernel 10k-transfer link microbenchmark.

Wall seconds are machine-dependent -- track the trend, not the absolute.
The simulated metrics and the *event counts* are deterministic: they
must only change when the model changes.  ``--check`` replays the
pinned scenarios -- ``serve64``, ``serve64_hot_raw``, ``stream64``,
``ctl_ops_chaos32`` and ``link10k`` -- and asserts their event counts
and simulated end times against ``baseline.json``; CI runs that instead
of wall-clock assertions, which would flake.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py [--output F]
    PYTHONPATH=src python benchmarks/perf/bench_serve.py --check
    PYTHONPATH=src python benchmarks/perf/bench_serve.py --update-baseline
    PYTHONPATH=src python benchmarks/perf/bench_serve.py --full   # + registry sweep
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import scenarios  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def run_suite(full: bool = False) -> dict:
    serve = {name: scenarios.run_serve_scenario(name)
             for name in scenarios.SERVE_SCENARIOS}
    stream = {name: scenarios.run_stream_scenario(name)
              for name in scenarios.STREAM_SCENARIOS}
    ctl = {name: scenarios.run_ctl_scenario(name)
           for name in scenarios.CTL_SCENARIOS}
    link = scenarios.run_link_microbench()
    snapshot = {
        "schema": 2,
        "python": platform.python_version(),
        "sweep": scenarios.run_sweep(),
        "serve": serve,
        "stream": stream,
        "ctl": ctl,
        "link10k": link,
    }
    if full:
        snapshot["sweep_full"] = scenarios.run_sweep_full()
    return snapshot


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
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    checked = []
    for name in scenarios.CHECK_SCENARIOS:
        result = scenarios.run_serve_scenario(name)
        for policy, metrics in result["policies"].items():
            expected = baseline["serve"][name][policy]
            for key in ("events", "makespan_s"):
                if metrics[key] != expected[key]:
                    failures.append(
                        f"{name}[{policy}].{key}: expected "
                        f"{expected[key]}, got {metrics[key]}")
            checked.append(f"{name} events={metrics['events']}")
    for name in scenarios.STREAM_CHECK_SCENARIOS:
        metrics = scenarios.run_stream_scenario(name)
        expected = baseline["stream"][name]
        for key in ("events", "makespan_s"):
            if metrics[key] != expected[key]:
                failures.append(f"{name}.{key}: expected "
                                f"{expected[key]}, got {metrics[key]}")
        checked.append(f"{name} events={metrics['events']}")
    for name in scenarios.CTL_CHECK_SCENARIOS:
        metrics = scenarios.run_ctl_scenario(name)
        expected = baseline["ctl"][name]
        for key in ("events", "makespan_s", "fault_windows"):
            if metrics[key] != expected[key]:
                failures.append(f"{name}.{key}: expected "
                                f"{expected[key]}, got {metrics[key]}")
        checked.append(f"{name} events={metrics['events']}")
    link = scenarios.run_link_microbench()
    for key in ("events", "simulated_seconds"):
        if link[key] != baseline["link10k"][key]:
            failures.append(f"link10k.{key}: expected "
                            f"{baseline['link10k'][key]}, got {link[key]}")
    checked.append(f"link10k events={link['events']}")
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
    payload = {"serve": {}, "stream": {}, "ctl": {}, "link10k": {}}
    for name in scenarios.CHECK_SCENARIOS:
        payload["serve"][name] = {
            policy: {"events": metrics["events"],
                     "makespan_s": metrics["makespan_s"]}
            for policy, metrics in
            scenarios.run_serve_scenario(name)["policies"].items()
        }
    for name in scenarios.STREAM_CHECK_SCENARIOS:
        metrics = scenarios.run_stream_scenario(name)
        payload["stream"][name] = {"events": metrics["events"],
                                   "makespan_s": metrics["makespan_s"]}
    payload["ctl"] = {}
    for name in scenarios.CTL_CHECK_SCENARIOS:
        metrics = scenarios.run_ctl_scenario(name)
        payload["ctl"][name] = {
            "events": metrics["events"],
            "makespan_s": metrics["makespan_s"],
            "fault_windows": metrics["fault_windows"],
        }
    link = scenarios.run_link_microbench()
    payload["link10k"] = {"events": link["events"],
                          "simulated_seconds": link["simulated_seconds"]}
    BASELINE_PATH.write_text(json.dumps(payload, indent=2,
                                        sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_serve.json",
                        help="where to write the snapshot")
    parser.add_argument("--check", action="store_true",
                        help="replay the pinned scenarios and assert their "
                             "deterministic event counts (CI smoke)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="refresh benchmarks/perf/baseline.json")
    parser.add_argument("--full", action="store_true",
                        help="also run the full-registry sweep (slow)")
    args = parser.parse_args()
    if args.check:
        return check_against_baseline()
    if args.update_baseline:
        return update_baseline()
    snapshot = run_suite(full=args.full)
    path = Path(args.output)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    for name, payload in snapshot["serve"].items():
        for policy, metrics in payload["policies"].items():
            print(f"  serve[{name}/{policy}]: {metrics['wall_seconds']}s "
                  f"wall, {metrics['events']} events "
                  f"({metrics['events_per_sec']}/s)")
    for name, metrics in snapshot["stream"].items():
        print(f"  stream[{name}]: {metrics['wall_seconds']}s wall, "
              f"{metrics['events']} events "
              f"({metrics['events_per_sec']}/s), "
              f"p99 {metrics['p99_latency_s']}s")
    for name, metrics in snapshot["ctl"].items():
        print(f"  ctl[{name}]: {metrics['wall_seconds']}s wall, "
              f"{metrics['events']} events "
              f"({metrics['events_per_sec']}/s), "
              f"{metrics['fault_windows']} fault window(s), "
              f"{metrics['retries']} retries, {metrics['shed']} shed")
    link = snapshot["link10k"]
    print(f"  link10k: {link['wall_seconds']}s wall, "
          f"{link['events']} events ({link['events_per_sec']}/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
