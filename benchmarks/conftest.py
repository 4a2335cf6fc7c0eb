"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper on the
simulated backend, prints the paper-vs-measured rows, stores them in
``benchmark.extra_info`` and asserts the *shape* facts (who wins, by
roughly what factor) that the paper's narrative rests on.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.backends import RunConfig, SimulatedBackend


@pytest.fixture(scope="session")
def backend():
    return SimulatedBackend()


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing.

    Simulation runs are deterministic, so repeated rounds only waste
    wall-clock; pedantic mode keeps the harness honest about cost.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit(benchmark, title: str, frame) -> None:
    """Print a result table and attach it to the benchmark record."""
    print(f"\n=== {title} ===")
    print(frame.to_markdown())
    benchmark.extra_info[title] = frame.to_csv()
