"""CLI and Session wiring for the telemetry flags and ``presto trend``."""

import json

import pytest

from repro.cli import main
from repro.obs.tracing import validate_chrome_trace

SERVE = ["serve", "--tenants", "2", "--trace", "steady", "--seed", "0"]
CTL = ["ctl", "--tenants", "3", "--trace", "steady", "--seed", "0",
       "--fault-rate", "0.3"]
STREAM = ["stream", "--tenants", "2", "--requests", "8", "--seed", "0"]


class TestExports:
    def test_metrics_out_writes_schema_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main([*SERVE, "--metrics-out", str(out),
                     "--metrics-interval", "300"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["samples"]
        assert capsys.readouterr().out.startswith("## serve")

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([*SERVE, "--trace-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) > 0
        cats = {event.get("cat") for event in payload["traceEvents"]
                if event["ph"] == "X"}
        assert {"job", "queue", "epoch", "offline"} <= cats

    def test_dash_appends_export_to_stdout(self, capsys):
        assert main([*SERVE, "--trace-out", "-"]) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        payload = json.loads("\n".join(lines[lines.index("{"):]))
        validate_chrome_trace(payload)

    def test_telemetry_flags_leave_report_unchanged(self, tmp_path,
                                                    capsys):
        for argv in (SERVE, CTL, STREAM):
            assert main(argv) == 0
            baseline = capsys.readouterr().out
            out = tmp_path / "export.json"
            assert main([*argv, "--trace-out", str(out),
                         "--metrics-out", str(tmp_path / "m.json")]) == 0
            assert capsys.readouterr().out == baseline

    @pytest.mark.parametrize("interval", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [SERVE, CTL, STREAM],
                             ids=["serve", "ctl", "stream"])
    def test_bad_metrics_interval_is_a_clean_error(self, argv, interval,
                                                   capsys):
        """A NaN or infinite sampler timeout would corrupt the kernel
        heap and change the simulated report; it exits 2 instead."""
        assert main([*argv, "--metrics-out", "-",
                     "--metrics-interval", interval]) == 2
        captured = capsys.readouterr()
        assert "presto: error" in captured.err
        assert "finite and positive" in captured.err
        assert captured.out == ""

    def test_policy_comparison_rejects_telemetry(self, tmp_path, capsys):
        argv = ["serve", "--tenants", "2", "--policy", "all",
                "--trace-out", str(tmp_path / "t.json")]
        assert main(argv) == 2
        assert "policy comparison" in capsys.readouterr().err

    def test_follow_streams_ledger_to_stderr(self, capsys):
        assert main(CTL) == 0
        baseline = capsys.readouterr().out
        assert main([*CTL, "--follow"]) == 0
        captured = capsys.readouterr()
        assert captured.out == baseline
        assert "--submit--> PENDING" in captured.err
        assert "| dlq=" in captured.err


class TestSessionTelemetry:
    def test_artifact_carries_metrics_and_trace(self):
        from repro.api import ExperimentSpec, ServeSpec, Session
        from repro.obs import Telemetry
        spec = ExperimentSpec(kind="serve",
                              serve=ServeSpec(tenants=2, trace="steady"))
        artifact = Session().run(spec, telemetry=Telemetry(
            metrics_interval=300.0, trace=True))
        assert artifact.metrics["schema"] == 1
        assert validate_chrome_trace(artifact.trace) > 0
        exported = artifact.to_dict()
        assert "metrics" in exported and "trace" in exported

    def test_unobserved_artifact_omits_telemetry_keys(self):
        from repro.api import ExperimentSpec, ServeSpec, Session
        spec = ExperimentSpec(kind="serve",
                              serve=ServeSpec(tenants=2, trace="steady"))
        artifact = Session().run(spec)
        assert artifact.metrics is None and artifact.trace is None
        exported = artifact.to_dict()
        assert "metrics" not in exported and "trace" not in exported

    def test_telemetry_rejected_for_profiling_kinds(self):
        from repro.api import ExperimentSpec, Session
        from repro.errors import SpecError
        from repro.obs import Telemetry
        spec = ExperimentSpec(kind="profile", pipelines=("CV",))
        with pytest.raises(SpecError):
            Session().run(spec, telemetry=Telemetry(trace=True))

    def test_telemetry_does_not_change_fingerprints(self):
        from repro.api import ExperimentSpec, ServeSpec, Session
        from repro.obs import Telemetry
        spec = ExperimentSpec(kind="serve",
                              serve=ServeSpec(tenants=2, trace="steady"))
        plain = Session().run(spec)
        observed = Session().run(spec, telemetry=Telemetry(trace=True))
        assert observed.fingerprint == plain.fingerprint
        assert observed.report == plain.report


class TestTrendCommand:
    @staticmethod
    def _snapshot(wall, events=1000.0):
        return {workload: {"correct": True, "failed": 0, "metrics": {
            "wall_ms_per_unit": {"value": wall, "unit": "ms"},
            "events_per_unit": {"value": events, "unit": "count"}}}
            for workload in ("serve64_hot_raw", "stream64_poisson")}

    @pytest.fixture
    def series(self, tmp_path):
        before = self._snapshot(wall=2.0)
        after = dict(before, serve64_hot_raw=self._snapshot(
            wall=2.5, events=1001.0)["serve64_hot_raw"])
        a, b = tmp_path / "A.json", tmp_path / "B.json"
        a.write_text(json.dumps(before))
        b.write_text(json.dumps(after))
        return [str(a), str(b)]

    def test_flags_synthetic_regression(self, series, capsys):
        assert main(["trend", *series]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "serve64_hot_raw" in out
        assert "wall_ms_per_unit" in out

    def test_fail_on_regression_exits_3(self, series, capsys):
        assert main(["trend", *series, "--fail-on-regression"]) == 3
        assert main(["trend", series[0], series[0],
                     "--fail-on-regression"]) == 0

    def test_json_output(self, series, capsys):
        assert main(["trend", *series, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 1
        assert payload["metric"] == "wall_ms_per_unit"
        assert main(["trend", *series, "--json",
                     "--metric", "events_per_unit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [point["workload"] for point in payload["points"]
                if point["regression"]] == ["serve64_hot_raw"]

    def test_bad_snapshot_is_a_clean_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["trend", str(bogus), str(bogus)]) == 2
        assert "presto: error" in capsys.readouterr().err

    def test_label_count_mismatch_is_a_clean_error(self, series,
                                                   tmp_path, capsys):
        third = tmp_path / "C.json"
        third.write_text(json.dumps(self._snapshot(wall=2.0)))
        assert main(["trend", *series, str(third), "--labels", "x"]) == 2
        err = capsys.readouterr().err
        assert "presto: error" in err
        assert "one label per snapshot" in err
        assert main(["trend", *series, "--labels", "x", "y"]) == 0

    def test_bench_serve_snapshot_is_a_clean_error(self, tmp_path, capsys):
        """The retired wall-clock snapshot shape is not a trend input."""
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({
            "schema": 2, "python": "3.11.7",
            "serve": {"serve64": {"policies": {"cache-aware": {
                "events": 100, "events_per_sec": 5e4,
                "wall_seconds": 2.0}}}},
            "stream": {"stream64": {"events": 100}}}))
        assert main(["trend", str(legacy), str(legacy)]) == 2
        err = capsys.readouterr().err
        assert "presto: error" in err
        assert "SIMBENCH.json" in err
