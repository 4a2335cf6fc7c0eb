"""Tests for Strategy, enumeration and profiling through the engine."""

import pytest

from repro.backends import RunConfig, SimulatedBackend
from repro.core.profiler import profiles_frame
from repro.core.strategy import Strategy, enumerate_strategies
from repro.errors import ProfilingError
from repro.exec import SweepEngine
from repro.pipelines import get_pipeline

BACKEND = SimulatedBackend()


class TestStrategy:
    def test_names(self):
        plan = get_pipeline("CV").split_at("resized")
        strategy = Strategy(plan, RunConfig(threads=4, compression="GZIP"))
        assert strategy.split_name == "resized"
        assert strategy.pipeline_name == "CV"
        assert "threads=4" in strategy.name
        assert "comp=GZIP" in strategy.name

    def test_uid_stable_and_distinct(self):
        plan = get_pipeline("CV").split_at("resized")
        a = Strategy(plan, RunConfig(threads=4))
        b = Strategy(plan, RunConfig(threads=4))
        c = Strategy(plan, RunConfig(threads=8))
        assert a.uid == b.uid
        assert a.uid != c.uid


class TestEnumeration:
    def test_default_grid_is_split_points(self):
        strategies = enumerate_strategies(get_pipeline("NILM"))
        assert [s.split_name for s in strategies] == [
            "unprocessed", "decoded", "aggregated"]

    def test_compression_skips_unprocessed(self):
        strategies = enumerate_strategies(
            get_pipeline("NILM"), compressions=(None, "GZIP"))
        combos = {(s.split_name, s.config.compression) for s in strategies}
        assert ("unprocessed", "GZIP") not in combos
        assert ("decoded", "GZIP") in combos

    def test_grid_size(self):
        strategies = enumerate_strategies(
            get_pipeline("NILM"), threads=(1, 8),
            compressions=(None, "GZIP"), cache_modes=("none", "system"))
        # 3 splits x 2 threads x 2 compressions x 2 caches, minus the
        # unprocessed+GZIP combinations (1 split x 2 threads x 2 caches).
        assert len(strategies) == 3 * 2 * 2 * 2 - 4

    def test_explicit_splits(self):
        strategies = enumerate_strategies(get_pipeline("CV"),
                                          splits=["resized"])
        assert len(strategies) == 1
        assert strategies[0].split_name == "resized"


class TestProfiler:
    def test_profile_strategy_runs(self):
        engine = SweepEngine(BACKEND)
        strategy = Strategy(get_pipeline("MP3").split_at("decoded"),
                            RunConfig())
        [profile] = engine.profile([strategy])
        assert profile.throughput > 0
        assert profile.storage_bytes > 0
        assert len(profile.runs) == 1

    def test_runs_total_repeats(self):
        engine = SweepEngine(BACKEND, runs_total=3)
        strategy = Strategy(get_pipeline("MP3").split_at("decoded"),
                            RunConfig())
        [profile] = engine.profile([strategy])
        assert len(profile.runs) == 3
        assert profile.throughput_stdev == pytest.approx(0.0)  # DES

    def test_invalid_runs_total(self):
        with pytest.raises(ProfilingError):
            SweepEngine(BACKEND, runs_total=0)

    def test_sample_count_subsets(self):
        """The paper's sample_count knob (profile a fraction cheaply)."""
        engine = SweepEngine(BACKEND)
        strategy = Strategy(get_pipeline("CV").split_at("resized"),
                            RunConfig())
        [subset] = engine.profile([strategy], sample_count=8000)
        assert subset.result.epochs[0].samples == 8000
        assert subset.storage_bytes < 3e9

    def test_profile_pipeline_covers_all_splits(self):
        profiles = SweepEngine(BACKEND).profile_pipeline(
            get_pipeline("FLAC"))
        assert [p.strategy.split_name for p in profiles] == [
            "unprocessed", "decoded", "spectrogram-encoded"]

    def test_to_frame(self):
        profiles = SweepEngine(BACKEND).profile_pipeline(
            get_pipeline("FLAC"))
        frame = profiles_frame(profiles)
        assert len(frame) == 3
        for column in ("throughput_sps", "storage_gb", "preprocessing_s",
                       "strategy", "uid"):
            assert column in frame.columns

    def test_subset_profiling_preserves_ranking(self):
        """Profiling 8000 samples picks the same winner as the full
        dataset for FLAC (the paper's sampling question, Sec. 2)."""
        engine = SweepEngine(BACKEND)
        full = engine.profile_pipeline(get_pipeline("FLAC"))
        subset = engine.profile_pipeline(get_pipeline("FLAC"),
                                         sample_count=8000)
        best_full = max(full, key=lambda p: p.throughput)
        best_subset = max(subset, key=lambda p: p.throughput)
        assert (best_full.strategy.split_name
                == best_subset.strategy.split_name)
