"""Tests for simbench trend analysis (repro.obs.trend)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.obs.trend import (METRIC_DIRECTIONS, analyze, analyze_files,
                             flatten_snapshot, load_snapshot)

REPO = Path(__file__).resolve().parents[2]


def result(wall=2.0, setup=0.1, rss=40.0, events=1000.0):
    """One workload's simbench result line (``run.py``'s last line)."""
    values = {"wall_ms_per_unit": wall, "setup_s": setup,
              "peak_rss_mb": rss, "events_per_unit": events}
    return {"correct": True, "attempted": 6, "failed": 0,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in values.items()}}


def snapshot(serve_wall=2.0, stream_wall=3.0, ctl_wall=4.0, **shared):
    """A minimal SIMBENCH.json-shaped snapshot."""
    return {
        "serve64_hot_raw": result(wall=serve_wall, **shared),
        "stream64_poisson": result(wall=stream_wall, **shared),
        "ctl_ops_chaos32": result(wall=ctl_wall, **shared),
    }


class TestFlatten:
    def test_scenario_keys(self):
        rows = flatten_snapshot(snapshot(), "wall_ms_per_unit")
        assert rows == {"ctl_ops_chaos32": 4.0, "serve64_hot_raw": 2.0,
                        "stream64_poisson": 3.0}

    def test_missing_metric_rows_are_skipped(self):
        traced = {"serve64_hot_raw": {"metrics": {
            "wall_s": {"value": 6.9}}}}
        assert flatten_snapshot(traced, "wall_ms_per_unit") == {}


class TestAnalyze:
    def test_synthetic_throughput_regression_is_flagged(self):
        before, after = snapshot(), snapshot(serve_wall=2.5)
        report = analyze([before, after], ["A", "B"])
        assert report.metric == "wall_ms_per_unit"
        flagged = {point.workload for point in report.regressions}
        assert flagged == {"serve64_hot_raw"}
        point = report.regressions[0]
        assert point.delta_pct == pytest.approx(25.0)

    def test_threshold_gates_small_drops(self):
        report = analyze([snapshot(), snapshot(serve_wall=2.05)],
                         ["A", "B"], threshold_pct=5.0)
        assert not report.regressions
        faster = analyze([snapshot(), snapshot(serve_wall=1.0)],
                         ["A", "B"])
        assert not faster.regressions

    def test_setup_and_rss_regressions_are_rises(self):
        for metric, changed in (("setup_s", dict(setup=0.2)),
                                ("peak_rss_mb", dict(rss=50.0))):
            before, after = snapshot(), snapshot(**changed)
            report = analyze([before, after], ["A", "B"], metric=metric)
            assert len(report.regressions) == 3  # every workload rose
            assert not analyze([after, before], ["A", "B"],
                               metric=metric).regressions

    def test_event_count_metric_flags_any_drift(self):
        before, after = snapshot(), snapshot(events=1000.5)
        report = analyze([before, after], ["A", "B"],
                         metric="events_per_unit")
        assert len(report.regressions) == 3
        fewer = analyze([after, before], ["A", "B"],
                        metric="events_per_unit")
        assert len(fewer.regressions) == 3
        assert not analyze([before, before], ["A", "B"],
                           metric="events_per_unit").regressions

    def test_multi_step_series_labels_each_step(self):
        series = [snapshot(), snapshot(), snapshot(serve_wall=3.0)]
        report = analyze(series, ["A", "B", "C"])
        workloads = [point.workload for point in report.regressions]
        assert workloads == ["[B->C] serve64_hot_raw"]

    def test_rejects_unknown_metric_and_short_series(self):
        with pytest.raises(ObservabilityError, match="unknown"):
            analyze([snapshot(), snapshot()], ["A", "B"], metric="p99")
        with pytest.raises(ObservabilityError, match="two"):
            analyze([snapshot()], ["A"])

    def test_rejects_a_label_count_that_differs_from_the_snapshots(self):
        series = [snapshot(), snapshot(), snapshot()]
        for labels in (["x"], ["A", "B"], ["A", "B", "C", "D"]):
            with pytest.raises(ObservabilityError,
                               match="one label per snapshot"):
                analyze(series, labels)

    def test_describe_names_the_bound_of_each_direction(self):
        """``events_per_unit`` flags any change, so its summary must
        not quote the percentage threshold it never applies."""
        before, after = snapshot(), snapshot(events=1000.5)
        exact = analyze([before, after], ["A", "B"],
                        metric="events_per_unit").describe()
        assert "3 regression(s) (any change):" in exact
        assert "beyond" not in exact
        steady = analyze([before, before], ["A", "B"],
                         metric="events_per_unit").describe()
        assert steady.endswith("no regressions (any change)")
        wall = analyze([before, snapshot(serve_wall=2.5)],
                       ["A", "B"]).describe()
        assert "1 regression(s) beyond 5.0%:" in wall

    def test_known_metrics_have_directions(self):
        assert set(METRIC_DIRECTIONS.values()) <= {"up", "any"}
        end_to_end = {entry["name"] for entry in json.loads(
            (REPO / "BENCHMARK.json").read_text())["end_to_end"]}
        assert set(METRIC_DIRECTIONS) == end_to_end


class TestFiles:
    def test_analyze_files_defaults_labels_to_names(self, tmp_path):
        a, b = tmp_path / "A.json", tmp_path / "B.json"
        a.write_text(json.dumps(snapshot()))
        b.write_text(json.dumps(snapshot(serve_wall=2.5)))
        report = analyze_files([a, b])
        assert report.labels == ["A.json", "B.json"]
        assert len(report.regressions) == 1
        assert "REGRESSION" in report.to_markdown()
        assert "regression(s)" in report.describe()

    def test_load_rejects_malformed_snapshots(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_snapshot(missing)
        for payload in ({}, [1, 2], {"unrelated": True},
                        {"serve64_hot_raw": {"correct": True}}):
            bogus = tmp_path / "bogus.json"
            bogus.write_text(json.dumps(payload))
            with pytest.raises(ObservabilityError, match="SIMBENCH"):
                load_snapshot(bogus)

    def test_simbench_check_snapshot_loads(self, tmp_path):
        """What ``tools/simbench_check.py`` writes is what trend reads."""
        spec = importlib.util.spec_from_file_location(
            "simbench_check", REPO / "tools" / "simbench_check.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        path = tmp_path / "SIMBENCH.json"
        path.write_text(json.dumps(tool.snapshot({
            "serve64_hot_raw": "progress\n" + json.dumps(result()),
            "stream64_poisson": json.dumps(result(wall=3.0)),
        })))
        rows = flatten_snapshot(load_snapshot(path), "wall_ms_per_unit")
        assert rows == {"serve64_hot_raw": 2.0, "stream64_poisson": 3.0}
