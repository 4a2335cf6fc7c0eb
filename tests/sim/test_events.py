"""Unit and property tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.bandwidth import SharedBandwidth
from repro.sim.events import Simulation, Timeout, all_of
from repro.sim.resources import Lock, Resource


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulation()

    def proc():
        yield sim.timeout(1.5)
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc()) == 4.0
    assert sim.now == 4.0


def test_timeout_value_passthrough():
    sim = Simulation()

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        return value

    assert sim.run_process(proc()) == "payload"


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


#: Every scheduling entry point that takes a duration or a size, as
#: ``(sim, value) -> ...`` calls; each must reject ``value``.
_GUARDED_ENTRY_POINTS = {
    "Timeout": lambda sim, value: Timeout(sim, value),
    "Event.succeed": lambda sim, value: sim.event().succeed(delay=value),
    "Event.fail": lambda sim, value: sim.event().fail(
        RuntimeError("boom"), delay=value),
    "Resource.held_for": lambda sim, value: Resource(sim, 1).held_for(
        value),
    "Lock.held_for/per_unit": lambda sim, value: Lock(sim).held_for(value),
    "Lock.held_for/units": lambda sim, value: Lock(sim).held_for(1.0,
                                                                 value),
    "SharedBandwidth.transfer": lambda sim, value: SharedBandwidth(
        sim, aggregate_bw=1.0).transfer(value),
}


@pytest.mark.parametrize("value", [float("nan"), -1.0], ids=["nan", "neg"])
@pytest.mark.parametrize("entry", sorted(_GUARDED_ENTRY_POINTS))
def test_nan_and_negative_durations_never_enter_the_heap(entry, value):
    """The monotone-clock invariant: NaN fails every ``x < 0`` test, so
    each guard is written ``not x >= 0`` and rejects NaN like a
    negative, before anything is scheduled."""
    sim = Simulation()
    with pytest.raises(SimulationError):
        _GUARDED_ENTRY_POINTS[entry](sim, value)
    assert sim._queue == [] and not sim._fifo


@pytest.mark.parametrize("value", [float("nan"), -1.0], ids=["nan", "neg"])
@pytest.mark.parametrize("trigger", ["succeed", "fail"])
def test_rejected_delayed_trigger_leaves_event_pending(trigger, value):
    """A rejected delay changes no state: the event stays untriggered,
    no sequence number is spent, and a corrected trigger still resumes
    its waiter."""
    sim = Simulation()
    gate = sim.event()
    log = []

    def waiter():
        log.append((yield gate))

    sim.process(waiter(), name="waiter")
    sequence = sim._sequence
    with pytest.raises(SimulationError):
        if trigger == "succeed":
            gate.succeed("late", delay=value)
        else:
            gate.fail(RuntimeError("boom"), delay=value)
    assert not gate.triggered
    assert sim._sequence == sequence
    gate.succeed("open")
    sim.run()
    assert log == ["open"]


def test_event_succeed_resumes_waiter():
    sim = Simulation()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter(), name="waiter")
    sim.process(opener(), name="opener")
    sim.run()
    assert log == [(3.0, "open")]


def test_event_double_trigger_raises():
    sim = Simulation()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_fail_raises_inside_process():
    sim = Simulation()
    gate = sim.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield gate
        return "handled"

    def failer():
        yield sim.timeout(1.0)
        gate.fail(ValueError("boom"))

    sim.process(failer(), name="failer")
    assert sim.run_process(waiter(), name="waiter") == "handled"


def test_process_is_waitable_event():
    sim = Simulation()

    def inner():
        yield sim.timeout(2.0)
        return 42

    def outer():
        result = yield sim.process(inner(), name="inner")
        return result, sim.now

    assert sim.run_process(outer(), name="outer") == (42, 2.0)


def test_yielding_non_event_raises():
    sim = Simulation()

    def bad():
        yield 1.0  # floats are not events

    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run_process(bad())


@pytest.mark.parametrize("request_", [(), (1.0, 2.0), (1.0, 2.0, 3.0),
                                      ("cores", 1.0, 1.0)])
def test_yielding_malformed_tuple_raises(request_):
    sim = Simulation()

    def bad():
        yield request_  # not a held_for() request

    with pytest.raises(SimulationError, match="expected an Event"):
        sim.run_process(bad())


def test_deadlock_detected():
    sim = Simulation()
    never = sim.event()

    def stuck():
        yield never

    with pytest.raises(DeadlockError):
        sim.run_process(stuck())


def test_run_until_stops_early():
    sim = Simulation()

    def proc():
        yield sim.timeout(10.0)

    sim.process(proc())
    assert sim.run(until=4.0) == 4.0
    assert sim.now == 4.0


def test_all_of_collects_values_in_order():
    sim = Simulation()

    def proc(delay, value):
        yield sim.timeout(delay)
        return value

    def main():
        procs = [sim.process(proc(3.0, "a")), sim.process(proc(1.0, "b"))]
        values = yield all_of(sim, procs)
        return values, sim.now

    values, now = sim.run_process(main())
    assert values == ["a", "b"]
    assert now == 3.0


def test_all_of_empty_is_immediate():
    sim = Simulation()

    def main():
        values = yield all_of(sim, [])
        return values

    assert sim.run_process(main()) == []


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=30))
def test_parallel_processes_finish_at_max_delay(delays):
    """N parallel sleeps complete at exactly max(delays)."""
    sim = Simulation()

    def sleeper(delay):
        yield sim.timeout(delay)

    def main():
        yield all_of(sim, [sim.process(sleeper(d)) for d in delays])

    sim.run_process(main())
    assert sim.now == pytest.approx(max(delays))


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                 allow_nan=False), min_size=1, max_size=30))
def test_sequential_timeouts_sum(delays):
    """Sequential sleeps accumulate; the clock never goes backwards."""
    sim = Simulation()
    observed = []

    def proc():
        for delay in delays:
            yield sim.timeout(delay)
            observed.append(sim.now)

    sim.run_process(proc())
    assert sim.now == pytest.approx(sum(delays), rel=1e-9, abs=1e-9)
    assert observed == sorted(observed)
