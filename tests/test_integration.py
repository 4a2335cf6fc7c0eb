"""End-to-end integration tests pinning the paper's headline claims."""

import pytest

from repro import (AutoTuner, ObjectiveWeights, RunConfig, SimulatedBackend,
                   StrategyAnalysis, SweepEngine, get_pipeline)
from repro.core.analysis import DEADLINE, THROUGHPUT_ONLY
from repro.core.report import tradeoff_table
from repro.core.training import devices_unblocked_by

BACKEND = SimulatedBackend()
ENGINE = SweepEngine(BACKEND)


def test_abstract_claim_3x_to_13x_over_untuned():
    """Abstract: tuned strategies beat fully-preprocessing-once by
    3x (CV) to 13x (NLP), keeping the pipeline functionally identical."""
    cv = ENGINE.profile_pipeline(get_pipeline("CV"))
    by_name = {p.strategy.split_name: p.throughput for p in cv}
    cv_gain = by_name["resized"] / by_name["pixel-centered"]
    assert 2.0 < cv_gain < 4.5  # paper: ~3.1x

    nlp = ENGINE.profile_pipeline(get_pipeline("NLP"))
    by_name = {p.strategy.split_name: p.throughput for p in nlp}
    nlp_gain = by_name["bpe-encoded"] / by_name["embedded"]
    assert 6.0 < nlp_gain < 20.0  # paper: ~13x


def test_table1_tradeoffs():
    """Table 1's three CV rows: the intro's motivating numbers."""
    pipeline = get_pipeline("CV")
    by_name = {p.strategy.split_name: p
               for p in ENGINE.profile_pipeline(pipeline)}
    online = by_name["unprocessed"]
    full = by_name["pixel-centered"]
    resized = by_name["resized"]
    # "all steps once" is ~5.4x faster than "every iteration"...
    assert full.throughput / online.throughput == pytest.approx(5.4,
                                                                rel=0.35)
    # ...but costs >9x the storage...
    assert full.storage_bytes / online.storage_bytes > 9.0
    # ...while stopping at resize is ~16.7x faster at only 2.4x storage.
    assert resized.throughput / online.throughput > 10.0
    assert resized.storage_bytes / online.storage_bytes < 4.0
    table = tradeoff_table([online, full, resized])
    assert len(table) == 3


def test_fig3_stall_story():
    """The tuned strategy feeds three of the five accelerators."""
    by_name = {p.strategy.split_name: p.throughput
               for p in ENGINE.profile_pipeline(get_pipeline("CV"))}
    assert devices_unblocked_by(by_name["pixel-centered"]) == []
    assert len(devices_unblocked_by(by_name["resized"])) == 3


def test_end_to_end_tuning_flow():
    """The README quickstart flow: profile -> analyse -> recommend."""
    profiles = ENGINE.profile_pipeline(get_pipeline("CV2-PNG"))
    analysis = StrategyAnalysis(profiles)
    assert analysis.best_strategy_name(THROUGHPUT_ONLY) == "resized"
    summary = analysis.summary(DEADLINE)
    assert "Recommended strategy" in summary


def test_objective_weights_shift_recommendations():
    """The paper's Sec. 3.1 example: deadlines change the answer."""
    profiles = ENGINE.profile_pipeline(get_pipeline("CV"))
    analysis = StrategyAnalysis(profiles)
    throughput_best = analysis.best_strategy_name(ObjectiveWeights(0, 0, 1))
    deadline_best = analysis.best_strategy_name(ObjectiveWeights(5, 0, 1))
    assert throughput_best == "resized"
    assert deadline_best != "pixel-centered"


def test_autotuner_full_grid_nlp():
    """Tuning NLP across compressions reproduces the paper's advice:
    materialise bpe-encoded, never embedded."""
    tuner = AutoTuner(BACKEND)
    report = tuner.tune(get_pipeline("NLP"),
                        compressions=(None, "GZIP", "ZLIB"))
    assert report.best_strategy.split_name == "bpe-encoded"


def test_fig14_greyscale_insertion():
    """Sec. 4.6: greyscale before pixel-center nearly triples peak
    throughput; after pixel-center it only helps the final strategy."""
    before = {p.strategy.split_name: p.throughput
              for p in ENGINE.profile_pipeline(
                  get_pipeline("CV+greyscale-before"))}
    base = {p.strategy.split_name: p.throughput
            for p in ENGINE.profile_pipeline(get_pipeline("CV"))}
    # The new peak (applied-greyscale) beats the old peak (resized).
    assert max(before.values()) > 1.8 * base["resized"]
    assert max(before, key=before.get) == "applied-greyscale"

    after = {p.strategy.split_name: p.throughput
             for p in ENGINE.profile_pipeline(
                 get_pipeline("CV+greyscale-after"))}
    # Fig. 14b: materialising greyscale after centering still beats
    # materialising the 1.39 TB pixel-centered representation.
    assert after["applied-greyscale"] > 2.0 * after["pixel-centered"]


def test_compression_lessons():
    """Lesson 4: compression helps pixel-centered CV (high saving, no
    CPU wall) but never helps NLP (CPU-bound or low saving)."""
    cv = get_pipeline("CV")
    plain = BACKEND.run(cv.split_at("pixel-centered"), RunConfig())
    gzip = BACKEND.run(cv.split_at("pixel-centered"),
                       RunConfig(compression="GZIP"))
    assert 1.2 < gzip.throughput / plain.throughput < 3.0

    nlp = get_pipeline("NLP")
    for strategy in ("concatenated", "decoded", "bpe-encoded", "embedded"):
        plain = BACKEND.run(nlp.split_at(strategy), RunConfig())
        gzip = BACKEND.run(nlp.split_at(strategy),
                           RunConfig(compression="GZIP"))
        assert gzip.throughput <= plain.throughput * 1.1


def test_public_api_surface():
    import repro
    for name in repro.__all__:
        assert getattr(repro, name) is not None
