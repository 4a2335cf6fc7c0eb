"""Tests for dataset-growth extrapolation and epoch amortisation."""

import pytest

from repro.backends import Environment, RunConfig, SimulatedBackend
from repro.core import amortization, growth
from repro.errors import ProfilingError
from repro.exec import SweepEngine
from repro.pipelines import get_pipeline

BACKEND = SimulatedBackend()
ENGINE = SweepEngine(BACKEND)


@pytest.fixture(scope="module")
def cv2_profiles():
    return ENGINE.profile_pipeline(get_pipeline("CV2-JPG"))


class TestGrowth:
    def test_extrapolation_scales_linearly(self, cv2_profiles):
        env = Environment()
        profile = cv2_profiles[-1]  # pixel-centered, 5.8 GB
        estimate = growth.extrapolate_profile(profile, 4.0, env)
        assert estimate.storage_bytes == pytest.approx(
            4 * profile.storage_bytes)
        assert estimate.offline_seconds == pytest.approx(
            4 * profile.preprocessing_seconds)
        assert estimate.throughput_sps == profile.throughput

    def test_cache_loss_detected(self, cv2_profiles):
        """CV2-JPG pixel-centered (5.8 GB) fits in 80 GB RAM today but
        stops fitting somewhere around 14x growth."""
        env = Environment()
        profile = cv2_profiles[-1]
        small = growth.extrapolate_profile(profile, 2.0, env)
        big = growth.extrapolate_profile(profile, 16.0, env)
        assert not small.caching_lost
        assert big.caching_lost

    def test_bad_factor_rejected(self, cv2_profiles):
        with pytest.raises(ProfilingError):
            growth.extrapolate_profile(cv2_profiles[0], 0.0, Environment())

    def test_threshold_crossings_frame(self):
        frame = growth.find_threshold_crossings(get_pipeline("CV2-JPG"),
                                                Environment())
        rows = {row["strategy"]: row for row in frame.rows()}
        # 2.5 GB unprocessed crosses 80 GB RAM at ~31x growth.
        assert rows["unprocessed"]["ram_crossing_factor"] == pytest.approx(
            29.6, rel=0.1)
        assert rows["pixel-centered"]["cacheable_now"]
        # CV decoded already exceeds RAM (factor < 1).
        cv_frame = growth.find_threshold_crossings(get_pipeline("CV"),
                                                   Environment())
        cv_rows = {row["strategy"]: row for row in cv_frame.rows()}
        assert cv_rows["decoded"]["ram_crossing_factor"] < 1.0

    def test_growth_report_shows_cache_flip(self):
        """At 16x growth CV2-JPG's pixel-centered loses its cached-epoch
        advantage (93 GB > RAM) while resized (22 GB) keeps it."""
        pipeline = get_pipeline("CV2-JPG")
        report = growth.growth_report(BACKEND, pipeline,
                                      growth_factors=(1.0, 16.0))
        rows = {(row["growth"], row["strategy"]): row
                for row in report.rows()}
        assert (rows[(1.0, "pixel-centered")]["cached_sps"]
                > 2 * rows[(1.0, "pixel-centered")]["cold_sps"])
        grown = rows[(16.0, "pixel-centered")]
        assert grown["cached_sps"] < 1.3 * grown["cold_sps"]
        grown_resized = rows[(16.0, "resized")]
        assert grown_resized["cached_sps"] > 1.5 * grown_resized["cold_sps"]

    def test_recommendation_flips_structure(self):
        pipeline = get_pipeline("CV2-JPG")
        report = growth.growth_report(BACKEND, pipeline,
                                      growth_factors=(1.0, 16.0))
        flips = growth.recommendation_flips(report)
        assert flips[0][0] == 1.0
        assert all(isinstance(winner, str) for _, winner in flips)


class TestAmortization:
    def test_total_time_formula(self, cv2_profiles):
        profile = cv2_profiles[3]  # resized
        one = amortization.total_time(profile, 1)
        ten = amortization.total_time(profile, 10)
        per_epoch = (ten - one) / 9
        samples = profile.result.epochs[0].samples
        assert per_epoch == pytest.approx(samples / profile.throughput)

    def test_time_to_first_batch(self, cv2_profiles):
        by_name = {p.strategy.split_name: p for p in cv2_profiles}
        assert amortization.time_to_first_batch(
            by_name["unprocessed"]) == 0.0
        assert amortization.time_to_first_batch(by_name["resized"]) > 0.0

    def test_break_even_epochs(self, cv2_profiles):
        by_name = {p.strategy.split_name: p for p in cv2_profiles}
        epochs = amortization.break_even_epochs(by_name["unprocessed"],
                                                by_name["resized"])
        assert epochs is not None and epochs >= 1
        # At the break-even horizon the candidate is at least as good.
        assert (amortization.total_time(by_name["resized"], epochs)
                <= amortization.total_time(by_name["unprocessed"], epochs))
        # One epoch earlier it is not (tight break-even).
        if epochs > 1:
            assert (amortization.total_time(by_name["resized"], epochs - 1)
                    > amortization.total_time(by_name["unprocessed"],
                                              epochs - 1))

    def test_never_catches_up(self, cv2_profiles):
        """A slower-per-epoch strategy with more offline time never
        breaks even (decoded vs resized for CV2-JPG)."""
        by_name = {p.strategy.split_name: p for p in cv2_profiles}
        assert amortization.break_even_epochs(by_name["resized"],
                                              by_name["decoded"]) is None

    def test_short_runs_prefer_cheap_starts(self, cv2_profiles):
        """One-epoch runs should not pay hours of preprocessing."""
        winner_1 = amortization.best_strategy_for_epochs(cv2_profiles, 1)
        winner_100 = amortization.best_strategy_for_epochs(cv2_profiles,
                                                           1000)
        assert winner_1.preprocessing_seconds <= \
            winner_100.preprocessing_seconds
        assert winner_100.strategy.split_name == "resized"

    def test_amortization_frame(self, cv2_profiles):
        frame = amortization.amortization_frame(cv2_profiles,
                                                horizons=(1, 100))
        assert len(frame) == 2 * len(cv2_profiles)
        winners = {row["epochs"]: row["winner"] for row in frame.rows()}
        assert set(winners) == {1, 100}

    def test_validation(self, cv2_profiles):
        with pytest.raises(ProfilingError):
            amortization.total_time(cv2_profiles[0], -1)
        with pytest.raises(ProfilingError):
            amortization.best_strategy_for_epochs([], 5)
