"""Tests for the Machine model (cores, GIL, dispatch)."""

import pytest

from repro.sim.cpu import Machine
from repro.sim.events import Simulation, all_of
from repro.units import GB


def test_native_work_scales_with_cores():
    def run(threads):
        sim = Simulation()
        machine = Machine(sim, cores=8)

        def worker():
            for _ in range(4):
                yield machine.cores.held_for(1.0)

        def main():
            yield all_of(sim, [sim.process(worker())
                               for _ in range(threads)])

        sim.run_process(main())
        return sim.now

    assert run(1) == pytest.approx(4.0)
    assert run(8) == pytest.approx(4.0)   # 8 cores absorb 8 threads
    assert run(16) == pytest.approx(8.0)  # oversubscription queues


def test_external_work_serializes_on_gil():
    def run(threads, items=8):
        sim = Simulation()
        machine = Machine(sim, cores=8, gil_convoy=0.0)
        per_thread = items // threads

        def worker():
            for _ in range(per_thread):
                yield machine.gil.held_for(1.0)

        def main():
            yield all_of(sim, [sim.process(worker())
                               for _ in range(threads)])

        sim.run_process(main())
        return sim.now

    assert run(1) == pytest.approx(8.0)
    assert run(8) == pytest.approx(8.0)  # no speedup whatsoever


def test_gil_convoy_makes_threads_slower():
    """With convoy overhead, multi-threaded GIL work is slower than
    single-threaded -- the paper's speedup < 1.0 (Fig. 12g/i, 13a)."""
    def run(threads, items=8):
        sim = Simulation()
        machine = Machine(sim, cores=8, gil_convoy=0.05)
        per_thread = items // threads

        def worker():
            for _ in range(per_thread):
                yield machine.gil.held_for(1.0)

        def main():
            yield all_of(sim, [sim.process(worker())
                               for _ in range(threads)])

        sim.run_process(main())
        return sim.now

    assert run(8) > run(1)


def test_dispatch_is_serialized():
    sim = Simulation()
    machine = Machine(sim, dispatch_cost=0.01, dispatch_convoy=0.0)

    def worker():
        yield machine.dispatch.held_for(machine.dispatch_cost, 100)

    def main():
        yield all_of(sim, [sim.process(worker()) for _ in range(4)])

    sim.run_process(main())
    assert sim.now == pytest.approx(4 * 100 * 0.01)


def test_memory_read_uses_memory_link():
    sim = Simulation()
    machine = Machine(sim, memory_stream_bw=20 * GB)

    def worker():
        yield machine.memory_link.transfer(20 * GB)

    sim.run_process(worker())
    assert sim.now == pytest.approx(1.0)


def test_page_cache_sized_below_ram():
    sim = Simulation()
    machine = Machine(sim, ram_bytes=80 * GB)
    assert machine.page_cache.capacity_bytes < 80 * GB
    assert machine.page_cache.capacity_bytes > 70 * GB
