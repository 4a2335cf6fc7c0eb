"""Tests for the auto-tuner and report rendering."""

import pytest

from repro.backends import RunConfig, SimulatedBackend
from repro.core.analysis import ObjectiveWeights
from repro.core.autotune import AutoTuner
from repro.core.report import (bottleneck_report, profile_summary,
                               storage_vs_throughput, tradeoff_table)
from repro.core.strategy import Strategy
from repro.errors import ProfilingError
from repro.exec import SweepEngine
from repro.pipelines import get_pipeline

BACKEND = SimulatedBackend()


class TestAutoTuner:
    def test_tune_finds_cv_resized(self):
        tuner = AutoTuner(BACKEND)
        report = tuner.tune(get_pipeline("CV"), compressions=(None,))
        assert report.best_strategy.split_name == "resized"
        assert report.candidates >= report.screened >= 2

    def test_screening_reduces_profiled_count(self):
        tuner = AutoTuner(BACKEND)
        full = tuner.tune(get_pipeline("MP3"),
                          compressions=(None, "GZIP", "ZLIB"),
                          screen_keep=1.0)
        screened = tuner.tune(get_pipeline("MP3"),
                              compressions=(None, "GZIP", "ZLIB"),
                              screen_keep=0.4)
        assert screened.screened < full.screened
        # Screening must not change the winner.
        assert (screened.best_strategy.split_name
                == full.best_strategy.split_name)

    def test_every_split_survives_screening(self):
        tuner = AutoTuner(BACKEND)
        report = tuner.tune(get_pipeline("NLP"),
                            compressions=(None, "GZIP"),
                            screen_keep=0.3)
        profiled_splits = {p.strategy.split_name for p in report.profiles}
        assert profiled_splits == set(get_pipeline("NLP").strategy_names())

    def test_weights_are_honored(self):
        tuner = AutoTuner(BACKEND)
        report = tuner.tune(get_pipeline("NLP"),
                            weights=ObjectiveWeights(0, 10, 1),
                            compressions=(None,))
        assert report.best_strategy.split_name != "embedded"

    def test_bad_screen_keep(self):
        tuner = AutoTuner(BACKEND)
        with pytest.raises(ProfilingError):
            tuner.tune(get_pipeline("MP3"), screen_keep=0.0)

    def test_describe_and_frame(self):
        tuner = AutoTuner(BACKEND)
        report = tuner.tune(get_pipeline("FLAC"), compressions=(None,))
        assert "FLAC" in report.describe()
        assert len(report.frame()) == report.screened


class TestReport:
    def test_storage_vs_throughput(self):
        profiles = SweepEngine(BACKEND).profile_pipeline(
            get_pipeline("NILM"))
        frame = storage_vs_throughput(profiles)
        assert frame["strategy"] == ["unprocessed", "decoded", "aggregated"]
        assert all(value > 0 for value in frame["throughput_sps"])

    def test_tradeoff_table_matches_table1_layout(self):
        profiles = SweepEngine(BACKEND).profile_pipeline(get_pipeline("CV"))
        frame = tradeoff_table(profiles)
        assert "Preprocessing strategy" in frame.columns
        assert "Throughput in samples/s" in frame.columns
        assert "Storage Consumption in GB" in frame.columns

    def test_bottleneck_report_text(self):
        text = bottleneck_report(get_pipeline("NLP"))
        assert "gil" in text
        assert "unprocessed" in text

    def test_profile_summary(self):
        strategy = Strategy(get_pipeline("CV").split_at("resized"),
                            RunConfig(epochs=2, cache_mode="system"))
        [profile] = SweepEngine(BACKEND).profile([strategy])
        summary = profile_summary(profile)
        assert "resized" in summary
        assert "offline preprocessing" in summary
