"""Tests for the sim-clock metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("events").inc(-1.0)

    def test_gauge_tracks_last_set(self):
        gauge = Gauge("depth")
        gauge.set(4)
        gauge.set(2)
        assert gauge.value == 2

    def test_histogram_buckets_inclusive_upper_edges(self):
        hist = Histogram("delay", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]     # <=1, <=10, overflow
        assert hist.count == 4
        assert hist.mean == pytest.approx(106.5 / 4)

    def test_histogram_export_shape(self):
        hist = Histogram("delay", bounds=(1.0,))
        hist.observe(0.5)
        assert hist.to_dict() == {
            "bounds": [1.0], "counts": [1, 0],
            "sum": 0.5, "count": 1, "mean": 0.5,
        }

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("delay").mean == 0.0


class TestRegistry:
    def test_instruments_create_on_first_use_and_persist(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert registry.names == ["a", "b", "c"]

    def test_snapshot_captures_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(10)
        registry.gauge("depth").set(3)
        sample = registry.snapshot(12.5)
        assert sample == {"t": 12.5, "values": {"events": 10, "depth": 3}}
        assert registry.samples == [sample]

    def test_series_follows_one_instrument(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        for t, value in ((0.0, 1), (60.0, 4), (120.0, 2)):
            gauge.set(value)
            registry.snapshot(t)
        assert registry.series("depth") == [(0.0, 1), (60.0, 4), (120.0, 2)]
        assert registry.series("missing") == []

    def test_to_dict_is_json_shaped(self):
        import json
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.histogram("delay").observe(5.0)
        registry.snapshot(1.0)
        payload = registry.to_dict()
        assert payload["schema"] == 1
        assert len(payload["samples"]) == 1
        assert "delay" in payload["histograms"]
        json.dumps(payload)  # must serialize without custom encoders

    def test_registry_is_passive(self):
        """The registry alone never touches a simulation: snapshots are
        driven entirely by the caller's clock argument."""
        registry = MetricsRegistry()
        registry.snapshot(5.0)
        registry.snapshot(3.0)  # no monotonicity enforced here
        assert [sample["t"] for sample in registry.samples] == [5.0, 3.0]


class TestSamplerIntegration:
    def test_serve_sampler_produces_periodic_snapshots(self):
        from repro.serve.jobs import generate_trace
        from repro.serve.service import PreprocessingService
        registry = MetricsRegistry(interval=300.0)
        service = PreprocessingService(metrics=registry)
        report = service.run(generate_trace("steady", tenants=2, seed=0))
        assert registry.samples, "sampler produced no snapshots"
        times = [sample["t"] for sample in registry.samples]
        assert times == sorted(times)
        assert times[0] == pytest.approx(300.0)
        # one sample at most one interval past the makespan
        assert times[-1] <= report.makespan + 300.0
        values = registry.samples[0]["values"]
        for name in ("queue.depth", "slots.running", "link.utilization",
                     "cache.hit_rate", "kernel.events_processed",
                     "tenant.tenant-0.inflight"):
            assert name in values

    def test_serve_rejects_bad_interval(self):
        """The registry owns the sampling interval and refuses one the
        sampler could not schedule: a NaN or infinite timeout would
        corrupt the kernel heap."""
        from repro.errors import ObservabilityError
        for interval in (0.0, -0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ObservabilityError,
                               match="finite and positive"):
                MetricsRegistry(interval=interval)

    def test_registry_owns_the_default_interval(self):
        from repro.obs import DEFAULT_METRICS_INTERVAL
        assert MetricsRegistry().interval == DEFAULT_METRICS_INTERVAL
        assert MetricsRegistry(interval=0.5).interval == 0.5
