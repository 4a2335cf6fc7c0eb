"""Tier-1 pins for the perf suite's serve scenarios.

The full ``serve64_hot_raw`` benchmark is too heavy for the unit tier,
so this suite pins (a) the scenario *definition* -- it must run under
the ``tenant`` tie-break and stay in the CI bench-check set, (b) the
recorded baseline numbers, and (c) the deterministic cost of a
scaled-down (8-tenant) replica of the same trace shape, which any
kernel or model drift moves long before the 64-tenant run does.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.serve import PreprocessingService, generate_trace

REPO = Path(__file__).resolve().parents[2]


def _load_scenarios():
    spec = importlib.util.spec_from_file_location(
        "bench_scenarios", REPO / "benchmarks" / "perf" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHotRawScenarioDefinition:
    def test_runs_under_the_tenant_tie_break(self):
        scenarios = _load_scenarios()
        spec = scenarios.SERVE_SCENARIOS["serve64_hot_raw"]
        assert spec["tie_break"] == "tenant"
        assert spec["slots"] == 64
        assert spec["trace"]["hot_split"] == "unprocessed"
        assert "serve64_hot_raw" in scenarios.CHECK_SCENARIOS

    def test_baseline_pins_the_hot_raw_cost(self):
        baseline = json.loads(
            (REPO / "benchmarks" / "perf" / "baseline.json").read_text())
        pinned = baseline["serve"]["serve64_hot_raw"]["cache-aware"]
        assert pinned["events"] == 3802598
        assert pinned["makespan_s"] == pytest.approx(20030.355)


class TestStreamScenarioDefinition:
    def test_stream64_is_in_the_check_set(self):
        scenarios = _load_scenarios()
        spec = scenarios.STREAM_SCENARIOS["stream64"]
        assert spec["arrival"] == "burst"
        assert spec["queue_bound"] == 8
        assert "stream64" in scenarios.STREAM_CHECK_SCENARIOS

    def test_baseline_pins_the_stream_cost(self):
        baseline = json.loads(
            (REPO / "benchmarks" / "perf" / "baseline.json").read_text())
        pinned = baseline["stream"]["stream64"]
        assert pinned["events"] == 34970
        assert pinned["makespan_s"] == pytest.approx(666.923)


class TestScaledStream:
    """An 8-tenant replica of the stream64 trace shape: cheap enough
    for the unit tier, and any engine or arrival-schedule drift moves
    its deterministic cost long before the 64-tenant run does."""

    def test_event_count_is_pinned(self):
        from repro.stream import StreamingService, generate_stream
        streams = generate_stream(8, seed=0, arrival="burst", rate=2.0,
                                  requests=48, batch=32, workers=4,
                                  queue_bound=8)
        report = StreamingService().run(streams, seed=0)
        assert report.events_processed == 4231
        assert report.makespan == pytest.approx(121.515326, abs=1e-3)
        assert report.total_requests == 8 * 48
        assert report.total_completed + report.total_shed == 8 * 48


class TestScaledHotRaw:
    def _run(self, tie_break):
        trace = generate_trace(
            "bursty", tenants=8, seed=0, burst_size=4,
            pipelines=("CV2-PNG", "CV2-JPG"),
            hot_pipeline="CV2-PNG", hot_split="unprocessed")
        return PreprocessingService(policy="cache-aware", slots=8,
                                    tie_break=tie_break).run(trace)

    def test_event_count_is_pinned(self):
        report = self._run("tenant")
        assert report.events_processed == 524250
        assert report.makespan == pytest.approx(2963.639, abs=1e-3)

    def test_tie_break_changes_the_schedule(self):
        """The tenant tie-break is live: arrival ordering differs."""
        assert self._run("arrival").makespan == pytest.approx(
            2963.643, abs=1e-3)
