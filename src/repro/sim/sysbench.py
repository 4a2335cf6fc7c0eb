"""A sysbench-style memory-bandwidth probe.

The paper validates its memory subsystem with sysbench (166 GB/s,
Sec. 4.2 obs. 3).  :func:`run_memory_probe` measures the simulated
machine's memory link the same way: ``threads`` workers each stream a
block of memory, and the aggregate bandwidth is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.cpu import Machine
from repro.sim.events import Event, Simulation, all_of
from repro.units import GB


@dataclass
class MemoryProbeResult:
    """Outcome of one memory-bandwidth measurement."""

    threads: int
    total_bytes: float
    duration: float

    @property
    def bandwidth(self) -> float:
        return self.total_bytes / self.duration


def run_memory_probe(machine_factory=None, threads: int = 8,
                     block_bytes: float = 16 * GB) -> MemoryProbeResult:
    """Stream ``block_bytes`` per thread over the memory link."""
    sim = Simulation()
    machine = machine_factory(sim) if machine_factory else Machine(sim)

    def worker() -> Generator[Event, None, None]:
        yield machine.memory_link.transfer(block_bytes)

    workers = [sim.process(worker(), name=f"membench-{i}")
               for i in range(threads)]

    def wait_all() -> Generator[Event, None, None]:
        yield all_of(sim, workers)

    sim.run_process(wait_all(), name="sysbench")
    return MemoryProbeResult(
        threads=threads,
        total_bytes=threads * block_bytes,
        duration=sim.now,
    )
