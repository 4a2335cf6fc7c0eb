"""Tests for the BottleneckDoctor (repro.diagnosis.doctor)."""

import pytest

from repro.backends.base import RunConfig
from repro.backends.simulated import SimulatedBackend
from repro.diagnosis import BottleneckDoctor, verification_report
from repro.errors import DiagnosisError
from repro.pipelines.registry import get_pipeline, registered_names
from repro.pipelines.synthetic import (build_read_sweep_pipeline,
                                       build_rms_sweep_pipeline)


@pytest.fixture(scope="module")
def doctor():
    return BottleneckDoctor(SimulatedBackend())


class TestDiagnoseEveryRegistryPipeline:
    """The ISSUE 2 acceptance bar: every registered pipeline gets a
    well-formed attribution and at least one rewrite per strategy."""

    @pytest.fixture(scope="class")
    def diagnoses(self):
        doctor = BottleneckDoctor(SimulatedBackend())
        return {name: doctor.diagnose(get_pipeline(name))
                for name in registered_names()}

    def test_covers_the_whole_registry(self, diagnoses):
        assert set(diagnoses) == set(registered_names())

    def test_fractions_sum_to_one(self, diagnoses):
        for name, diagnosis in diagnoses.items():
            for strategy in diagnosis.strategies:
                total = sum(strategy.attribution.as_dict().values())
                assert total == pytest.approx(1.0, abs=0.01), (
                    name, strategy.strategy_name)

    def test_every_strategy_gets_a_rewrite(self, diagnoses):
        for name, diagnosis in diagnoses.items():
            for strategy in diagnosis.strategies:
                assert len(strategy.rewrites) >= 1, (
                    name, strategy.strategy_name)

    def test_report_frame_has_diagnosis_columns(self, diagnoses):
        frame = diagnoses["MP3"].frame()
        for column in ("cpu_frac", "storage_frac", "decode_frac",
                       "stall_frac", "bound", "top_rewrite",
                       "predicted_speedup"):
            assert column in frame.columns

    def test_markdown_report_renders(self, diagnoses):
        report = diagnoses["FLAC"].to_markdown()
        assert "| strategy" in report
        assert "rewrites (per strategy, best first):" in report
        assert "insert-prefetch" in report


class TestVerification:
    """Predicted speedup sign must match measurement (synthetic
    pipelines, ISSUE 2 acceptance)."""

    @pytest.mark.parametrize("pipeline,config", [
        (build_read_sweep_pipeline(10.0), RunConfig(threads=2)),
        (build_rms_sweep_pipeline(1.0, "native"), RunConfig(threads=2)),
        (build_rms_sweep_pipeline(1.0, "numpy"), RunConfig(threads=8)),
    ], ids=["read-sweep", "rms-native", "rms-numpy"])
    def test_verify_top2_sign_matches(self, doctor, pipeline, config):
        diagnosis = doctor.diagnose(pipeline, config=config)
        verified = doctor.verify(diagnosis, top=2)
        assert 1 <= len(verified) <= 2
        for item in verified:
            assert item.sign_matches, item.describe()
            assert item.measured_sps > 0

    def test_verification_runs_through_the_backend(self, doctor):
        diagnosis = doctor.diagnose(get_pipeline("MP3"))
        verified = doctor.verify(diagnosis, top=2)
        for item in verified:
            # The measured number is a fresh backend run of the
            # rewritten strategy, not the prediction echoed back.
            assert item.measured_sps != pytest.approx(
                item.rewrite.predicted_sps, rel=1e-12)
            assert item.prediction_error == pytest.approx(
                (item.rewrite.predicted_sps - item.measured_sps)
                / item.measured_sps)

    def test_verify_dedupes_identical_rewrites(self, doctor):
        diagnosis = doctor.diagnose(get_pipeline("MP3"))
        verified = doctor.verify(diagnosis, top=3)
        uids = [item.rewrite.strategy.uid for item in verified]
        assert len(uids) == len(set(uids))

    def test_verification_report_lists_each_row(self, doctor):
        diagnosis = doctor.diagnose(get_pipeline("FLAC"))
        verified = doctor.verify(diagnosis, top=2)
        report = verification_report(verified)
        assert report.count("predicted") == len(verified)

    def test_verify_rejects_nonpositive_top(self, doctor):
        diagnosis = doctor.diagnose(get_pipeline("MP3"))
        with pytest.raises(DiagnosisError):
            doctor.verify(diagnosis, top=0)


class TestFallbacksAndPlumbing:
    def test_diagnose_profiles_without_traces_uses_model(self, doctor):
        profiles = doctor.engine.profile_pipeline(get_pipeline("MP3"))
        for profile in profiles:
            for run in profile.runs:
                for epoch in run.epochs:
                    epoch.trace = None
        diagnosis = doctor.diagnose_profiles(profiles)
        for strategy in diagnosis.strategies:
            assert strategy.attribution.source == "model"
            total = sum(strategy.attribution.as_dict().values())
            assert total == pytest.approx(1.0, abs=0.01)

    def test_diagnose_profiles_rejects_empty_input(self, doctor):
        with pytest.raises(DiagnosisError):
            doctor.diagnose_profiles([])

    def test_traced_attribution_reports_trace_source(self, doctor):
        diagnosis = doctor.diagnose(get_pipeline("MP3"))
        assert all(strategy.attribution.source == "trace"
                   for strategy in diagnosis.strategies)

    def test_sample_count_diagnoses_a_subset(self, doctor):
        diagnosis = doctor.diagnose(get_pipeline("FLAC"),
                                    sample_count=500)
        sample_counts = {
            strategy.profile.result.epochs[0].samples
            for strategy in diagnosis.strategies}
        assert sample_counts == {500}

    def test_best_returns_highest_throughput_strategy(self, doctor):
        diagnosis = doctor.diagnose(get_pipeline("MP3"))
        best = diagnosis.best()
        assert best.profile.throughput == max(
            strategy.profile.throughput
            for strategy in diagnosis.strategies)

    def test_core_attribution_table_on_traced_profiles(self, doctor):
        from repro.core.report import attribution_table
        profiles = doctor.engine.profile_pipeline(get_pipeline("MP3"))
        frame = attribution_table(profiles)
        assert frame.columns == ["strategy", "throughput_sps", "cpu_frac",
                                 "storage_frac", "decode_frac",
                                 "stall_frac", "bound"]
        for row in frame.rows():
            total = sum(row[column] for column in
                        ("cpu_frac", "storage_frac", "decode_frac",
                         "stall_frac"))
            assert total == pytest.approx(1.0, abs=0.01)

    def test_core_attribution_table_tolerates_traceless_profiles(
            self, doctor):
        from repro.core.report import attribution_table
        profiles = doctor.engine.profile_pipeline(get_pipeline("MP3"))
        for profile in profiles:
            for run in profile.runs:
                for epoch in run.epochs:
                    epoch.trace = None
        frame = attribution_table(profiles)
        assert frame["cpu_frac"] == [None] * len(profiles)
        assert "| strategy" in frame.to_markdown()
