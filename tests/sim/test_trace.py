"""Tests for the unified resource trace (repro.sim.trace) and the batch
body's inline brackets that fill it."""

from types import SimpleNamespace

import pytest

from repro.backends.simulated import BatchCounters, batch_body
from repro.errors import SimulationError
from repro.pipelines.base import Representation
from repro.sim.cluster import StorageCluster
from repro.sim.cpu import Machine
from repro.sim.events import Simulation
from repro.sim.storage import HDD_CEPH
from repro.sim.trace import TRACE_CATEGORIES, ResourceTrace


def make_trace(**overrides):
    base = dict(duration=10.0, threads=4, open_seconds=2.0,
                read_seconds=10.0, memory_seconds=1.0, decode_seconds=4.0,
                cpu_seconds=12.0, gil_seconds=3.0, dispatch_seconds=2.0,
                shuffle_seconds=1.0, bytes_from_storage=1e9,
                bytes_from_cache=0.0, cache_hit_rate=0.0)
    base.update(overrides)
    return ResourceTrace(**base)


def run_lanes(trace, lanes=2, opens_per_sample=0.0):
    """``lanes`` reader lanes, each serving one one-sample batch of a
    raw single-byte sample with 1 s of native online CPU, through
    :func:`batch_body` on a one-core machine with free file opens."""
    sim = Simulation()
    machine = Machine(sim, cores=1)
    cluster = StorageCluster(sim, HDD_CEPH)
    stored = Representation("raw", bytes_per_sample=1.0,
                            record_format=False)
    step = SimpleNamespace(holds_gil=False, cpu_seconds=1.0)
    batches = batch_body(sim, machine, cluster, stored, 1.0,
                         opens_per_sample, 0.0, [step],
                         BatchCounters(), trace=trace)
    for lane in range(lanes):
        sim.process(batches([(1, ("chunk", lane), None)]))
    sim.run()
    return sim, cluster


class TestAccounting:
    def test_stall_is_the_unaccounted_remainder(self):
        trace = make_trace()
        assert trace.total_thread_seconds == 40.0
        assert trace.accounted_seconds == 35.0
        assert trace.stall_seconds == pytest.approx(5.0)

    def test_stall_never_negative(self):
        trace = make_trace(duration=1.0, threads=1)  # accounted > budget
        assert trace.stall_seconds == 0.0


class TestFractions:
    def test_fractions_sum_to_one(self):
        shares = make_trace().fractions()
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(value >= 0 for value in shares.values())

    def test_category_mapping(self):
        shares = make_trace().fractions()
        assert shares["cpu"] == pytest.approx(15.0 / 40.0)        # cpu+gil
        assert shares["storage"] == pytest.approx(13.0 / 40.0)    # o+r+m
        assert shares["decode"] == pytest.approx(4.0 / 40.0)
        assert shares["stall"] == pytest.approx(8.0 / 40.0)       # d+s+idle

    def test_empty_trace_is_pure_stall(self):
        assert ResourceTrace().fractions() == {
            "cpu": 0.0, "storage": 0.0, "decode": 0.0, "stall": 1.0}

    def test_overaccounted_trace_renormalizes(self):
        trace = make_trace(duration=1.0, threads=1)
        shares = trace.fractions()
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert shares["stall"] == 0.0

    def test_dominant_names_largest_share(self):
        assert make_trace().dominant() == "cpu"
        assert make_trace(cpu_seconds=0.0, gil_seconds=0.0,
                          read_seconds=30.0).dominant() == "storage"


class TestCombination:
    def test_merged_sums_times_and_bytes(self):
        merged = make_trace().merged(make_trace(bytes_from_cache=1e9))
        assert merged.duration == 20.0
        assert merged.read_seconds == 20.0
        assert merged.bytes_from_storage == 2e9
        assert merged.cache_hit_rate == pytest.approx(1e9 / 3e9)

    def test_merged_rejects_thread_mismatch(self):
        with pytest.raises(SimulationError):
            make_trace().merged(make_trace(threads=8))

    def test_scaled_preserves_fractions(self):
        trace = make_trace()
        assert trace.scaled(3.5).fractions() == pytest.approx(
            trace.fractions())

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(SimulationError):
            make_trace().scaled(0.0)

    def test_dict_roundtrip(self):
        trace = make_trace()
        assert ResourceTrace.from_dict(trace.to_dict()) == trace


class TestBracketHelpers:
    def test_none_trace_is_passthrough(self):
        """Brackets only read the clock: a traced run schedules the same
        events at the same times as an untraced one."""
        untraced, _ = run_lanes(None)
        traced, _ = run_lanes(ResourceTrace(threads=2))
        assert traced.now == untraced.now
        assert traced.events_processed == untraced.events_processed

    def test_contention_is_charged_to_the_waiting_category(self):
        trace = ResourceTrace(threads=2)
        run_lanes(trace)
        # First lane holds the one core 1 s; the second waits 1 s, then
        # holds it 1 s -> 3 s of cpu thread-time.
        assert trace.cpu_seconds == pytest.approx(3.0)

    def test_every_category_has_a_field(self):
        trace = ResourceTrace()
        for category in TRACE_CATEGORIES:
            assert hasattr(trace, f"{category}_seconds")


class TestEdgeCases:
    """Boundary behaviour: empty traces and zero-duration spans."""

    def test_empty_trace_budgets_are_zero(self):
        trace = ResourceTrace()
        assert trace.total_thread_seconds == 0.0
        assert trace.accounted_seconds == 0.0
        assert trace.stall_seconds == 0.0
        assert trace.dominant() == "stall"

    def test_empty_trace_merges_and_scales(self):
        merged = ResourceTrace().merged(make_trace(threads=1))
        assert merged.read_seconds == 10.0
        assert merged.cache_hit_rate == 0.0
        scaled = ResourceTrace().scaled(10.0)
        assert scaled.fractions()["stall"] == 1.0

    def test_zero_duration_span_charges_nothing(self):
        """A zero-second metadata hold still opens the file, and its
        bracket charges nothing."""
        trace = ResourceTrace(threads=1)
        _, cluster = run_lanes(trace, lanes=1, opens_per_sample=1.0)
        assert cluster.files_opened == 1
        assert trace.open_seconds == 0.0
        assert trace.cpu_seconds == pytest.approx(1.0)

    def test_zero_duration_add_keeps_fractions_finite(self):
        trace = ResourceTrace(duration=1.0, threads=1)
        trace.cpu_seconds += 0.0
        shares = trace.fractions()
        assert shares["cpu"] == 0.0
        assert sum(shares.values()) == pytest.approx(1.0)
