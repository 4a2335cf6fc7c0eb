"""Tests for the cloud-cost objective (Sec. 3.1 extension)."""

import pytest

from repro.backends import RunConfig, SimulatedBackend
from repro.core.economics import (PriceSheet, cheapest_strategy, cost_frame,
                                  price_strategy)
from repro.errors import ProfilingError
from repro.exec import SweepEngine
from repro.pipelines import get_pipeline

ENGINE = SweepEngine(SimulatedBackend())


@pytest.fixture(scope="module")
def cv_profiles():
    return ENGINE.profile_pipeline(get_pipeline("CV"))


@pytest.fixture(scope="module")
def nlp_profiles():
    return ENGINE.profile_pipeline(get_pipeline("NLP"))


def test_price_sheet_validation():
    with pytest.raises(ProfilingError):
        PriceSheet(trainer_per_hour=-1)
    with pytest.raises(ProfilingError):
        PriceSheet(trainer_ingest_sps=0)


def test_cost_components_positive(cv_profiles):
    cost = price_strategy(cv_profiles[3], PriceSheet(), epochs=10)
    assert cost.offline_usd > 0
    assert cost.storage_usd > 0
    assert cost.training_usd > 0
    assert cost.total_usd == pytest.approx(
        cost.offline_usd + cost.storage_usd + cost.egress_usd
        + cost.training_usd)


def test_unprocessed_has_no_offline_cost(cv_profiles):
    by_name = {p.strategy.split_name: p for p in cv_profiles}
    cost = price_strategy(by_name["unprocessed"], PriceSheet(), epochs=1)
    assert cost.offline_usd == 0.0


def test_stalls_burn_trainer_dollars(cv_profiles):
    """The slow unprocessed strategy stalls a V100 ~92%: its training
    bill dwarfs the tuned strategy's despite zero preprocessing."""
    by_name = {p.strategy.split_name: p for p in cv_profiles}
    prices = PriceSheet()
    slow = price_strategy(by_name["unprocessed"], prices, epochs=10)
    fast = price_strategy(by_name["resized"], prices, epochs=10)
    assert slow.stall_fraction > 0.9
    assert fast.stall_fraction == 0.0
    assert slow.training_usd > 5 * fast.training_usd
    assert slow.total_usd > fast.total_usd


def test_cheapest_cv_strategy_is_a_tuned_one(cv_profiles):
    winner = cheapest_strategy(cv_profiles, epochs=10)
    assert winner.strategy in ("resized", "concatenated")


def test_storage_prices_can_flip_the_winner(nlp_profiles):
    """With free storage, embedded's stall-free... actually bpe wins on
    throughput too; but with punitive storage prices embedded must never
    win and the total ordering punishes the 490 GB representation."""
    cheap_storage = PriceSheet(storage_per_gb_month=0.0)
    punitive = PriceSheet(storage_per_gb_month=5.0)
    by_name = {p.strategy.split_name: p for p in nlp_profiles}
    embedded_cheap = price_strategy(by_name["embedded"], cheap_storage, 10)
    embedded_punitive = price_strategy(by_name["embedded"], punitive, 10)
    assert embedded_punitive.total_usd > embedded_cheap.total_usd + 1000
    assert cheapest_strategy(nlp_profiles, punitive,
                             epochs=10).strategy != "embedded"


def test_egress_scales_with_epochs(cv_profiles):
    prices = PriceSheet(egress_per_gb=0.01)
    by_name = {p.strategy.split_name: p for p in cv_profiles}
    one = price_strategy(by_name["resized"], prices, epochs=1)
    ten = price_strategy(by_name["resized"], prices, epochs=10)
    assert ten.egress_usd == pytest.approx(10 * one.egress_usd)


def test_cost_frame_sorted(cv_profiles):
    frame = cost_frame(cv_profiles, PriceSheet(), epochs=10)
    totals = frame["total_usd"]
    assert totals == sorted(totals)
    assert len(frame) == len(cv_profiles)


def test_input_validation(cv_profiles):
    with pytest.raises(ProfilingError):
        price_strategy(cv_profiles[0], PriceSheet(), epochs=0)
    with pytest.raises(ProfilingError):
        price_strategy(cv_profiles[0], PriceSheet(), epochs=1,
                       project_months=-1)
    with pytest.raises(ProfilingError):
        cheapest_strategy([])
