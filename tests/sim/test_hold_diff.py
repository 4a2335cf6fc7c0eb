"""Differential tests: timed-hold requests vs acquire / Timeout / release.

``_reference_hold`` is the historical hold, kept in test code as the
executable specification: acquire a slot, compute the convoy penalty
when the grant resumes the process, hold with a :class:`Timeout`,
release in ``finally``.  The property test drives it and the fused
``held_for`` request through identical random schedules on a
:class:`Resource` and a convoy :class:`Lock` -- with bare ``acquire()``
holders mixed in, like the fault engine's straggler -- and asserts
that every process resumes at the same instant *and* sequence number,
and that the kernel and resource counters agree.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.events import Simulation, Timeout
from repro.sim.resources import Lock, Resource

_DURATIONS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])


def _reference_hold(sim, resource, per_unit, units):
    """The hold as the backends spelled it before ``held_for``."""
    yield resource.acquire()
    try:
        if isinstance(resource, Lock):
            waiters = len(resource._waiters)
            if waiters > resource.max_convoy_waiters:
                waiters = resource.max_convoy_waiters
            per_unit = per_unit + waiters * resource.convoy_overhead
            yield Timeout(sim, units * per_unit)
        else:
            yield Timeout(sim, per_unit)
    finally:
        resource.release()


def _straggle(sim, cores, slots, seconds):
    """Bare ``acquire()`` holder: park ``slots`` slots, then free them."""
    for _ in range(slots):
        yield cores.acquire()
    yield Timeout(sim, seconds)
    for _ in range(slots):
        cores.release()


_STEP = st.one_of(
    st.tuples(st.just("core"), _DURATIONS, st.just(1.0)),
    st.tuples(st.just("lock"), _DURATIONS,
              st.sampled_from([1.0, 2.0, 3.0])),
    st.tuples(st.just("sleep"), _DURATIONS, st.just(1.0)),
    st.tuples(st.just("straggle"), _DURATIONS,
              st.sampled_from([1.0, 2.0])),
)
_PROCESS = st.tuples(_DURATIONS, st.lists(_STEP, min_size=1, max_size=6))


def _simulate(schedule, capacity, max_waiters, fused):
    sim = Simulation()
    cores = Resource(sim, capacity, name="cores")
    lock = Lock(sim, name="lock", convoy_overhead=0.125,
                max_convoy_waiters=max_waiters)
    traces = []

    def proc(start, steps, trace):
        yield Timeout(sim, start)
        trace.append((sim.now, sim._sequence))
        for kind, seconds, units in steps:
            if kind == "sleep":
                yield Timeout(sim, seconds)
            elif kind == "straggle":
                yield from _straggle(sim, cores,
                                     min(int(units), capacity), seconds)
            else:
                resource = cores if kind == "core" else lock
                if not fused:
                    yield from _reference_hold(sim, resource, seconds, units)
                elif kind == "core":
                    yield cores.held_for(seconds)
                else:
                    yield lock.held_for(seconds, units)
            trace.append((sim.now, sim._sequence))

    for index, (start, steps) in enumerate(schedule):
        trace = []
        traces.append(trace)
        sim.process(proc(start, steps, trace), name=f"p{index}")
    sim.run()
    counters = [(r.total_acquisitions, r.peak_in_use, r.in_use, r.queued)
                for r in (cores, lock)]
    return traces, sim.events_processed, sim.now, counters


@settings(max_examples=200, deadline=None, derandomize=True)
@given(schedule=st.lists(_PROCESS, min_size=1, max_size=8),
       capacity=st.integers(min_value=1, max_value=4),
       max_waiters=st.integers(min_value=1, max_value=3))
def test_held_for_matches_acquire_timeout_release(schedule, capacity,
                                                  max_waiters):
    reference = _simulate(schedule, capacity, max_waiters, fused=False)
    fused = _simulate(schedule, capacity, max_waiters, fused=True)
    assert fused == reference


def test_contended_convoy_schedule_is_covered():
    """A fixed schedule where the convoy cap binds and stragglers queue,
    so the differential never passes on uncontended cases alone."""
    schedule = [(0.0, [("lock", 1.0, 2.0), ("core", 0.5, 1.0)])
                for _ in range(5)]
    schedule.append((0.25, [("straggle", 1.0, 2.0), ("core", 0.0, 1.0)]))
    reference = _simulate(schedule, 2, 2, fused=False)
    fused = _simulate(schedule, 2, 2, fused=True)
    assert fused == reference
    traces, _, _, counters = fused
    lock_acquisitions, lock_peak, _, _ = counters[1]
    assert lock_acquisitions == 5 and lock_peak == 1
    # The third lock holder waited behind two others: capped convoy.
    assert traces[2][1][0] > 3.0
