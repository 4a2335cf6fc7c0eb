"""Tests for rewrite proposal rules (repro.diagnosis.rewrites)."""

import pytest

from repro.backends.base import (CACHE_APPLICATION, CACHE_SYSTEM,
                                 Environment, RunConfig)
from repro.backends.simulated import SimulatedBackend
from repro.core.strategy import Strategy
from repro.diagnosis.attribution import attribute
from repro.diagnosis.rewrites import propose_rewrites
from repro.exec.engine import SweepEngine
from repro.pipelines.registry import get_pipeline
from repro.pipelines.synthetic import build_read_sweep_pipeline


def profile_of(pipeline, split, config):
    return SweepEngine(SimulatedBackend()).profile(
        [Strategy(pipeline.split_at(split), config)])[0]


def rewrites_for(pipeline, split="unprocessed", config=None):
    config = config or RunConfig()
    profile = profile_of(pipeline, split, config)
    return profile, propose_rewrites(profile, attribute(profile))


def kinds(rewrites):
    return [rewrite.kind for rewrite in rewrites]


class TestRuleSelection:
    def test_prefetch_is_always_proposed(self):
        for name in ("MP3", "NILM", "CV2-JPG"):
            _, rewrites = rewrites_for(get_pipeline(name))
            assert "insert-prefetch" in kinds(rewrites)

    def test_prefetch_is_graph_level_and_not_verifiable(self):
        _, rewrites = rewrites_for(get_pipeline("MP3"))
        prefetch = next(rewrite for rewrite in rewrites
                        if rewrite.kind == "insert-prefetch")
        assert prefetch.target == "graph"
        assert not prefetch.verifiable
        assert prefetch.predicted_speedup >= 1.0

    def test_raise_parallelism_only_below_core_count(self):
        pipeline = build_read_sweep_pipeline(10.0)
        _, narrow = rewrites_for(pipeline, split=0,
                                 config=RunConfig(threads=2))
        _, wide = rewrites_for(pipeline, split=0,
                               config=RunConfig(threads=8))
        assert "raise-parallelism" in kinds(narrow)
        assert "raise-parallelism" not in kinds(wide)

    def test_raise_parallelism_targets_the_core_count(self):
        _, rewrites = rewrites_for(build_read_sweep_pipeline(10.0),
                                   split=0, config=RunConfig(threads=2))
        rewrite = next(r for r in rewrites
                       if r.kind == "raise-parallelism")
        assert rewrite.strategy.config.threads == Environment().cores

    def test_codec_switch_proposed_where_the_model_predicts_a_win(self):
        # CV2-PNG 'pixel-centered' floats compress 93% and the strategy
        # is storage-bound, so a codec switch must be proposed...
        _, rewrites = rewrites_for(get_pipeline("CV2-PNG"),
                                   split="pixel-centered")
        rewrite = next(r for r in rewrites if r.kind == "switch-codec")
        assert rewrite.strategy.config.compression in ("GZIP", "ZLIB")
        assert rewrite.predicted_speedup > 1.0
        # ...while NLP 'decoded' is GIL-bound: compression would only
        # add decompression work, so the rule must stay silent.
        _, rewrites = rewrites_for(get_pipeline("NLP"), split="decoded")
        assert "switch-codec" not in kinds(rewrites)

    def test_codec_switch_never_offered_for_unprocessed(self):
        # Compression cannot fix random-access-bound strategies
        # (paper Sec. 4.3) and the backends reject the combination.
        for name in ("MP3", "NLP", "CV"):
            _, rewrites = rewrites_for(get_pipeline(name),
                                       split="unprocessed")
            assert "switch-codec" not in kinds(rewrites)

    def test_system_cache_requires_fitting_the_page_cache(self):
        # CV unprocessed is 144 GB on an 80 GB VM: no system-cache.
        _, big = rewrites_for(get_pipeline("CV"), split="unprocessed")
        assert "system-cache" not in kinds(big)
        _, small = rewrites_for(get_pipeline("MP3"),
                                split="spectrogram-encoded")
        assert "system-cache" in kinds(small)

    def test_relocate_cache_requires_tensors_to_fit_ram(self):
        # CV final tensors exceed 80 GB RAM (the paper's failed
        # app-cache runs); MP3's spectrograms fit.
        _, big = rewrites_for(get_pipeline("CV"))
        assert "relocate-cache" not in kinds(big)
        _, small = rewrites_for(get_pipeline("MP3"))
        assert "relocate-cache" in kinds(small)

    def test_materialize_further_stops_at_last_split(self):
        pipeline = get_pipeline("MP3")
        _, first = rewrites_for(pipeline, split="unprocessed")
        assert "materialize-further" in kinds(first)
        _, last = rewrites_for(pipeline, split="spectrogram-encoded")
        assert "materialize-further" not in kinds(last)


class TestRewriteShape:
    def test_ranked_by_predicted_speedup(self):
        _, rewrites = rewrites_for(get_pipeline("MP3"))
        speedups = [rewrite.predicted_speedup for rewrite in rewrites]
        assert speedups == sorted(speedups, reverse=True)

    def test_config_rewrites_carry_runnable_strategies(self):
        profile, rewrites = rewrites_for(get_pipeline("MP3"))
        backend = SimulatedBackend()
        for rewrite in rewrites:
            if not rewrite.verifiable:
                continue
            result = backend.run(rewrite.strategy.plan,
                                 rewrite.strategy.config)
            assert result.throughput > 0

    def test_cache_rewrites_run_at_least_two_epochs(self):
        _, rewrites = rewrites_for(get_pipeline("MP3"),
                                   split="spectrogram-encoded")
        for rewrite in rewrites:
            if rewrite.metric == "cached":
                assert rewrite.strategy.config.epochs >= 2
                assert rewrite.strategy.config.cache_mode in (
                    CACHE_SYSTEM, CACHE_APPLICATION)

    def test_predictions_are_anchored_to_the_measurement(self):
        profile, rewrites = rewrites_for(get_pipeline("MP3"))
        for rewrite in rewrites:
            assert rewrite.baseline_sps == pytest.approx(
                profile.throughput)
            assert rewrite.predicted_sps == pytest.approx(
                rewrite.baseline_sps * rewrite.predicted_speedup)

    def test_describe_mentions_kind_and_prediction(self):
        _, rewrites = rewrites_for(get_pipeline("MP3"))
        for rewrite in rewrites:
            text = rewrite.describe()
            assert rewrite.kind in text
            assert "predicted" in text
