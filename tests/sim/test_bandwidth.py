"""Tests for the max-min fair shared bandwidth link."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.bandwidth import SharedBandwidth
from repro.sim.events import Simulation, all_of
from repro.units import MB


def test_single_stream_runs_at_per_stream_cap():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=910 * MB, per_stream_bw=219 * MB)

    def proc():
        yield link.transfer(219 * MB)

    sim.run_process(proc())
    assert sim.now == pytest.approx(1.0)


def test_aggregate_cap_binds_with_many_streams():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=800 * MB, per_stream_bw=200 * MB)

    def proc():
        yield link.transfer(100 * MB)

    def main():
        yield all_of(sim, [sim.process(proc()) for _ in range(8)])

    sim.run_process(main())
    # 8 streams share 800 MB/s -> 100 MB/s each -> 1 s.
    assert sim.now == pytest.approx(1.0)
    assert link.bytes_moved == pytest.approx(800 * MB)


def test_two_streams_unconstrained_by_aggregate():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=1000 * MB, per_stream_bw=200 * MB)

    def proc():
        yield link.transfer(200 * MB)

    def main():
        yield all_of(sim, [sim.process(proc()) for _ in range(2)])

    sim.run_process(main())
    assert sim.now == pytest.approx(1.0)  # both at full per-stream rate


def test_late_joiner_slows_existing_stream():
    """Rates are recomputed when a stream joins mid-flight."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB, per_stream_bw=100 * MB)
    finish_times = {}

    def early():
        yield link.transfer(100 * MB)
        finish_times["early"] = sim.now

    def late():
        yield sim.timeout(0.5)
        yield link.transfer(50 * MB)
        finish_times["late"] = sim.now

    def main():
        yield all_of(sim, [sim.process(early()), sim.process(late())])

    sim.run_process(main())
    # Early: 50 MB alone in 0.5 s, then shares 50 MB/s; both need 50 MB
    # at 50 MB/s -> 1 more second. Both finish at t=1.5.
    assert finish_times["early"] == pytest.approx(1.5)
    assert finish_times["late"] == pytest.approx(1.5)


def test_departure_speeds_up_remaining_stream():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB, per_stream_bw=100 * MB)
    finish_times = {}

    def small():
        yield link.transfer(25 * MB)
        finish_times["small"] = sim.now

    def large():
        yield link.transfer(100 * MB)
        finish_times["large"] = sim.now

    def main():
        yield all_of(sim, [sim.process(small()), sim.process(large())])

    sim.run_process(main())
    # Shared at 50 each: small done at 0.5. Large has 75 MB left at full
    # 100 MB/s -> finishes at 0.5 + 0.75 = 1.25.
    assert finish_times["small"] == pytest.approx(0.5)
    assert finish_times["large"] == pytest.approx(1.25)


def test_zero_byte_transfer_is_instant():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB)

    def proc():
        yield link.transfer(0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_zero_byte_transfer_counter_semantics():
    """Zero-byte transfers count as transfers but never become active:
    ``peak_streams`` and ``bytes_moved`` must not move (explicit counter
    contract; the historical implementation was ambiguous here)."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB)

    def proc():
        yield link.transfer(0)
        yield link.transfer(0.0)
        return sim.now

    sim.run_process(proc())
    assert link.total_transfers == 2
    assert link.peak_streams == 0
    assert link.bytes_moved == 0.0
    assert link.active_streams == 0


def test_zero_byte_transfers_do_not_slow_active_streams():
    """A zero-byte transfer admitted mid-flight must not change the fair
    share of real streams (it never joins the active set)."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB)
    finish = {}

    def real():
        yield link.transfer(100 * MB)
        finish["real"] = sim.now

    def phantom():
        yield sim.timeout(0.25)
        yield link.transfer(0)
        finish["phantom"] = sim.now

    def main():
        yield all_of(sim, [sim.process(real()), sim.process(phantom())])

    sim.run_process(main())
    assert finish["phantom"] == pytest.approx(0.25)
    assert finish["real"] == pytest.approx(1.0)
    assert link.total_transfers == 2
    assert link.peak_streams == 1


def test_bytes_moved_includes_in_flight_progress():
    """``bytes_moved`` is live: mid-transfer reads see pro-rata bytes."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB)
    observed = {}

    def mover():
        yield link.transfer(100 * MB)

    def sampler():
        yield sim.timeout(0.5)
        observed["mid"] = link.bytes_moved

    def main():
        yield all_of(sim, [sim.process(mover()), sim.process(sampler())])

    sim.run_process(main())
    assert observed["mid"] == pytest.approx(50 * MB)
    assert link.bytes_moved == pytest.approx(100 * MB)


def test_equal_transfers_complete_together_in_admission_order():
    """Equal concurrent transfers finish in one batch, resumed in
    admission order (the heap must not reorder ties)."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=80 * MB, per_stream_bw=20 * MB)
    order = []

    def proc(index):
        yield link.transfer(20 * MB)
        order.append(index)

    def main():
        yield all_of(sim, [sim.process(proc(i)) for i in range(4)])

    sim.run_process(main())
    assert sim.now == pytest.approx(1.0)
    assert order == [0, 1, 2, 3]


def test_tag_tie_break_orders_simultaneous_completions_by_tag():
    """A batch of mathematically simultaneous tagged completions
    resolves in (tag, admission) order -- tenant identity, not
    admission order or float ulps, decides knife-edge scenarios."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=80 * MB,
                           per_stream_bw=20 * MB)
    order = []

    def proc(tag):
        yield link.transfer(20 * MB, tag)
        order.append(tag)

    def main():
        # Admitted in reverse-tag order; completion must sort by tag.
        yield all_of(sim, [sim.process(proc(tag))
                           for tag in ("t3", "t2", "t1", "t0")])

    sim.run_process(main())
    assert sim.now == pytest.approx(1.0)
    assert order == ["t0", "t1", "t2", "t3"]


def test_tag_tie_break_falls_back_to_admission_within_a_tag():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=80 * MB,
                           per_stream_bw=20 * MB)
    order = []

    def proc(tag, index):
        yield link.transfer(20 * MB, tag)
        order.append((tag, index))

    def main():
        yield all_of(sim, [sim.process(proc(tag, index))
                           for index, tag in enumerate(
                               ("b", "a", "b", "a"))])

    sim.run_process(main())
    assert order == [("a", 1), ("a", 3), ("b", 0), ("b", 2)]


def test_tag_tie_break_leaves_timestamps_unchanged():
    """Tags only permute within a same-instant batch; every completion
    timestamp and byte counter is identical to an untagged run."""
    def run(tagged):
        sim = Simulation()
        link = SharedBandwidth(sim, aggregate_bw=60 * MB,
                               per_stream_bw=30 * MB)
        finishes = []

        def proc(name, nbytes):
            yield link.transfer(nbytes, name if tagged else "")
            finishes.append((name, sim.now))

        def main():
            jobs = [("z", 30 * MB), ("y", 30 * MB), ("x", 45 * MB)]
            yield all_of(sim, [sim.process(proc(name, nbytes))
                               for name, nbytes in jobs])

        sim.run_process(main())
        return ([name for name, _ in finishes],
                {name: when for name, when in finishes}, link.bytes_moved)

    untagged_order, untagged_times, untagged_bytes = run(tagged=False)
    tagged_order, tagged_times, tagged_bytes = run(tagged=True)
    assert untagged_order == ["z", "y", "x"]  # admission order
    assert tagged_order == ["y", "z", "x"]    # (tag, admission) order
    assert tagged_times == untagged_times
    assert tagged_bytes == untagged_bytes


def test_no_active_rescan_attributes_remain():
    """The O(n) hot path is gone: the link keeps a heap, not a list of
    actives that arrival/completion must rescan."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB)
    assert not hasattr(link, "_active")
    assert hasattr(link, "_heap")


def test_progress_integral_rebases_when_idle():
    """Draining the link resets the progress integral so thresholds stay
    small over arbitrarily long simulations (float-resolution guard)."""
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB)

    def proc():
        for _ in range(3):
            yield link.transfer(50 * MB)
            yield sim.timeout(1.0)

    sim.run_process(proc())
    assert link._progress == 0.0
    assert link.bytes_moved == pytest.approx(150 * MB)


def test_negative_transfer_rejected():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=100 * MB)
    with pytest.raises(SimulationError):
        link.transfer(-1)


def test_bad_capacity_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        SharedBandwidth(sim, aggregate_bw=0)
    with pytest.raises(SimulationError):
        SharedBandwidth(sim, aggregate_bw=10, per_stream_bw=-1)


def test_stream_rate_query():
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=910 * MB, per_stream_bw=219 * MB)
    assert link.stream_rate(1) == pytest.approx(219 * MB)
    assert link.stream_rate(8) == pytest.approx(910 * MB / 8)
    assert link.stream_rate(0) == 0.0


@settings(deadline=None, max_examples=40)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=500 * MB),
                   min_size=1, max_size=12),
    aggregate=st.floats(min_value=50 * MB, max_value=2000 * MB),
    per_stream=st.floats(min_value=10 * MB, max_value=500 * MB),
)
def test_work_conservation_and_caps(sizes, aggregate, per_stream):
    """Property: all bytes arrive, and the makespan respects both caps.

    The total time can never beat total_bytes/aggregate_bw nor
    max_size/per_stream_bw, and with max-min fairness every transfer
    completes (work conservation).
    """
    sim = Simulation()
    link = SharedBandwidth(sim, aggregate, per_stream)
    done = []

    def proc(nbytes):
        yield link.transfer(nbytes)
        done.append(nbytes)

    def main():
        yield all_of(sim, [sim.process(proc(size)) for size in sizes])

    sim.run_process(main())
    assert len(done) == len(sizes)
    assert link.bytes_moved == pytest.approx(sum(sizes), rel=1e-6)
    effective_per_stream = min(per_stream, aggregate)
    lower_bound = max(sum(sizes) / aggregate,
                      max(sizes) / effective_per_stream)
    assert sim.now >= lower_bound * (1 - 1e-9)
    # And fairness cannot be worse than fully-serial execution.
    assert sim.now <= sum(sizes) / min(per_stream, aggregate) + 1e-9
