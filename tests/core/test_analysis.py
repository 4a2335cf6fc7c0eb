"""Tests for the objective function and strategy ranking (Sec. 3.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.backends import RunConfig, SimulatedBackend
from repro.core.analysis import (DEADLINE, STORAGE_BUDGET, THROUGHPUT_ONLY,
                                 ObjectiveWeights, StrategyAnalysis)
from repro.errors import ProfilingError
from repro.exec import SweepEngine
from repro.pipelines import get_pipeline

ENGINE = SweepEngine(SimulatedBackend())


@pytest.fixture(scope="module")
def cv_profiles():
    return ENGINE.profile_pipeline(get_pipeline("CV"))


def test_weights_validation():
    with pytest.raises(ProfilingError):
        ObjectiveWeights(-1, 0, 1)
    with pytest.raises(ProfilingError):
        ObjectiveWeights(0, 0, 0)


def test_empty_profiles_rejected():
    with pytest.raises(ProfilingError):
        StrategyAnalysis([])


def test_throughput_only_picks_fastest(cv_profiles):
    analysis = StrategyAnalysis(cv_profiles)
    assert analysis.best_strategy_name(THROUGHPUT_ONLY) == "resized"


def test_scores_in_range(cv_profiles):
    analysis = StrategyAnalysis(cv_profiles)
    weights = ObjectiveWeights(1, 1, 1)
    for score in analysis.scores(weights):
        assert 0.0 <= score <= 3.0


def test_ranked_frame_sorted(cv_profiles):
    analysis = StrategyAnalysis(cv_profiles)
    ranked = analysis.ranked(THROUGHPUT_ONLY)
    scores = ranked["score"]
    assert scores == sorted(scores, reverse=True)
    assert ranked.row(0)["strategy"] == "resized"


def test_deadline_weights_penalize_preprocessing(cv_profiles):
    """(1, 0, 1): unprocessed has zero preprocessing time, so its score
    must beat pixel-centered, which pays hours of preprocessing for
    worse throughput."""
    analysis = StrategyAnalysis(cv_profiles)
    scores = dict(zip((p.strategy.split_name for p in cv_profiles),
                      analysis.scores(DEADLINE)))
    assert scores["unprocessed"] > scores["pixel-centered"]


def test_storage_weights_change_winner():
    """On NLP, pure throughput picks bpe-encoded; a storage-heavy
    objective must never pick the 490 GB embedded strategy."""
    profiles = ENGINE.profile_pipeline(get_pipeline("NLP"))
    analysis = StrategyAnalysis(profiles)
    assert analysis.best_strategy_name(THROUGHPUT_ONLY) == "bpe-encoded"
    storage_heavy = ObjectiveWeights(0, 10, 1)
    assert analysis.best_strategy_name(storage_heavy) != "embedded"


def test_summary_mentions_recommendation(cv_profiles):
    summary = StrategyAnalysis(cv_profiles).summary()
    assert "Recommended strategy" in summary
    assert "resized" in summary


def test_presets_exist():
    assert THROUGHPUT_ONLY.throughput == 1.0
    assert DEADLINE.preprocessing == 1.0
    assert STORAGE_BUDGET.storage == 1.0


@given(wt=st.floats(0.1, 10), wp=st.floats(0, 10), ws=st.floats(0, 10))
def test_score_monotonic_in_throughput_weight(cv_profiles, wt, wp, ws):
    """Raising only the throughput weight never demotes the fastest
    strategy below its previous rank position 0 competitor."""
    analysis = StrategyAnalysis(cv_profiles)
    weights = ObjectiveWeights(wp, ws, wt)
    scores = analysis.scores(weights)
    throughputs = [p.throughput for p in cv_profiles]
    fastest = throughputs.index(max(throughputs))
    boosted = ObjectiveWeights(wp, ws, wt + 5.0)
    boosted_scores = analysis.scores(boosted)
    # The fastest strategy's score gain is the largest of all.
    gains = [b - a for a, b in zip(scores, boosted_scores)]
    assert gains[fastest] == pytest.approx(max(gains))
