#!/usr/bin/env python3
"""Record the reference outputs ``run.py`` checks every run against.

Usage, from the repository root::

    python3 simbench/make_reference.py --seeds 0 23

Runs each workload untraced once per seed in ``[first, last]`` through
the same worker ``run.py`` uses and merges the simulated outputs and
the SHA-256 of the rendered report into ``simbench/reference.json``.
Regenerate only when the simulated model changes on purpose (the same
change also repins ``benchmarks/perf/baseline.json``); a speed-only
change must leave every entry as it is.
"""

from __future__ import annotations

import argparse
import json
import time

from run import REFERENCE, WORKLOADS, Runner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 23),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args()
    reference = json.loads(REFERENCE.read_text()) \
        if REFERENCE.exists() else {}
    first, last = args.seeds
    for workload in args.workloads:
        entries = reference.setdefault(workload, {})
        for seed in range(first, last + 1):
            runner = Runner(time.monotonic() + 600)
            result = runner.launch(workload, seed, "sim")
            entries[str(seed)] = {"outputs": result["outputs"],
                                  "report_sha256": result["report_sha256"]}
            print(workload, seed, result["outputs"], flush=True)
            REFERENCE.write_text(json.dumps(reference, indent=1,
                                            sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
