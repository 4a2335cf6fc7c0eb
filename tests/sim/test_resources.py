"""Tests for Resource and Lock (capacity, FIFO order, convoy overhead)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ResourceError, SimulationError
from repro.sim.events import Simulation, all_of
from repro.sim.resources import Lock, Resource


def test_capacity_must_be_positive():
    sim = Simulation()
    with pytest.raises(ResourceError):
        Resource(sim, capacity=0)


def test_release_without_acquire_raises():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    with pytest.raises(ResourceError):
        resource.release()


def test_uncontended_use_takes_service_time():
    sim = Simulation()
    resource = Resource(sim, capacity=2)

    def proc():
        yield resource.held_for(5.0)
        return sim.now

    assert sim.run_process(proc()) == 5.0


def test_contended_resource_queues_fifo():
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    completion_order = []

    def proc(name):
        yield resource.held_for(1.0)
        completion_order.append((name, sim.now))

    def main():
        procs = [sim.process(proc(i)) for i in range(3)]
        yield all_of(sim, procs)

    sim.run_process(main())
    assert completion_order == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_capacity_two_runs_pairs():
    sim = Simulation()
    resource = Resource(sim, capacity=2)

    def proc():
        yield resource.held_for(1.0)

    def main():
        yield all_of(sim, [sim.process(proc()) for _ in range(4)])

    sim.run_process(main())
    # 4 jobs of 1 s on 2 slots -> 2 s total.
    assert sim.now == pytest.approx(2.0)
    assert resource.peak_in_use == 2
    assert resource.total_acquisitions == 4


@given(n_jobs=st.integers(1, 20), capacity=st.integers(1, 8),
       service=st.floats(min_value=0.01, max_value=10.0))
def test_makespan_matches_bank_teller_formula(n_jobs, capacity, service):
    """Identical jobs on a k-server queue finish in ceil(n/k) waves."""
    sim = Simulation()
    resource = Resource(sim, capacity=capacity)

    def proc():
        yield resource.held_for(service)

    def main():
        yield all_of(sim, [sim.process(proc()) for _ in range(n_jobs)])

    sim.run_process(main())
    waves = -(-n_jobs // capacity)  # ceil division
    assert sim.now == pytest.approx(waves * service, rel=1e-9)
    assert resource.in_use == 0
    assert resource.queued == 0


def test_lock_without_convoy_behaves_like_mutex():
    sim = Simulation()
    lock = Lock(sim)

    def proc():
        yield lock.held_for(2.0)

    def main():
        yield all_of(sim, [sim.process(proc()) for _ in range(3)])

    sim.run_process(main())
    assert sim.now == pytest.approx(6.0)


def test_lock_convoy_overhead_grows_with_waiters():
    """Each grant pays overhead per waiting thread: contention hurts."""
    sim = Simulation()
    lock = Lock(sim, convoy_overhead=0.1)

    def proc():
        yield lock.held_for(1.0)

    def main():
        yield all_of(sim, [sim.process(proc()) for _ in range(3)])

    sim.run_process(main())
    # Grants see 2, 1, 0 waiters -> holds of 1.2, 1.1, 1.0 seconds.
    assert sim.now == pytest.approx(3.3)


def test_lock_convoy_capped_by_max_waiters():
    sim = Simulation()
    lock = Lock(sim, convoy_overhead=1.0, max_convoy_waiters=2)

    def proc():
        yield lock.held_for(1.0)

    def main():
        yield all_of(sim, [sim.process(proc()) for _ in range(10)])

    sim.run_process(main())
    # Waiter counts: 9,8,...,0 but capped at 2 -> 8 grants pay +2, one +1.
    expected = 10 * 1.0 + 8 * 2.0 + 1 * 2.0 + 1.0
    # Grant i sees min(10 - 1 - i, 2): 2 for i in 0..7, then 1, then 0.
    expected = 10 * 1.0 + sum(min(10 - 1 - i, 2) for i in range(10)) * 1.0
    assert sim.now == pytest.approx(expected)


def test_serialized_lock_defeats_parallelism():
    """A GIL-style lock makes 8 threads no faster than 1 (paper Fig. 12)."""

    def run(n_threads):
        sim = Simulation()
        lock = Lock(sim, convoy_overhead=0.01)
        work_items = 40

        def worker(items):
            for _ in range(items):
                yield lock.held_for(1.0)

        per_thread = work_items // n_threads

        def main():
            yield all_of(sim, [sim.process(worker(per_thread))
                               for _ in range(n_threads)])

        sim.run_process(main())
        return sim.now

    assert run(8) >= run(1)


@pytest.mark.parametrize("build", [
    lambda sim: Resource(sim, 1).held_for(-1.0),
    lambda sim: Lock(sim).held_for(-1.0),
    lambda sim: Lock(sim).held_for(1.0, -2.0),
])
def test_negative_hold_rejected_when_built(build):
    with pytest.raises(SimulationError, match="negative hold"):
        build(Simulation())


def test_zero_duration_hold_resolves_at_once_through_the_fifo():
    sim = Simulation()
    resource = Resource(sim, capacity=1)

    def proc():
        yield resource.held_for(0.0)
        return sim.now

    process = sim.process(proc())
    sim.step()  # bootstrap: the process yields the hold, the grant queues
    assert not sim._queue and len(sim._fifo) == 1
    sim.step()  # grant: the zero-length timed half queues behind it
    assert not sim._queue and len(sim._fifo) == 1
    assert resource.in_use == 1
    sim.step()  # timed half: release, then the process returns
    assert resource.in_use == 0
    sim.run()
    assert process.value == 0.0
    assert sim.events_processed == 4
