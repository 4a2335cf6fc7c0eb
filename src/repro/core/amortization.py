"""Offline-time amortisation (paper Sec. 2: "Long preprocessing times
can be prohibitive if not amortized by faster training").

Materialising a representation pays a one-time offline cost to buy a
faster per-epoch rate.  Whether that pays off depends on how many epochs
the training runs:

    total_time(strategy, epochs) = offline + epochs * samples / T4

:func:`break_even_epochs` computes when a candidate strategy's total
time drops below a baseline's; :func:`best_strategy_for_epochs` picks
the overall winner for a given training length; and
:func:`time_to_first_batch` captures the interactive-use concern (the
unprocessed strategy starts training instantly).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.frame import Frame
from repro.core.profiler import StrategyProfile
from repro.errors import ProfilingError


def _per_epoch_seconds(profile: StrategyProfile) -> float:
    run = profile.result
    samples = run.epochs[0].samples
    if profile.throughput <= 0:
        raise ProfilingError(
            f"strategy {profile.strategy.split_name!r} has zero throughput")
    return samples / profile.throughput


def total_time(profile: StrategyProfile, epochs: int) -> float:
    """End-to-end seconds: offline preprocessing plus ``epochs`` passes."""
    if epochs < 0:
        raise ProfilingError("epochs must be non-negative")
    return (profile.preprocessing_seconds
            + epochs * _per_epoch_seconds(profile))


def time_to_first_batch(profile: StrategyProfile) -> float:
    """Seconds before training can consume its first sample."""
    return profile.preprocessing_seconds


def break_even_epochs(baseline: StrategyProfile,
                      candidate: StrategyProfile) -> Optional[int]:
    """Epochs after which ``candidate`` beats ``baseline`` end-to-end.

    Returns None when the candidate never catches up (its per-epoch rate
    is not better), 0 when it wins immediately.
    """
    base_epoch = _per_epoch_seconds(baseline)
    cand_epoch = _per_epoch_seconds(candidate)
    offline_gap = (candidate.preprocessing_seconds
                   - baseline.preprocessing_seconds)
    if offline_gap <= 0:
        return 0 if cand_epoch <= base_epoch else None
    saving_per_epoch = base_epoch - cand_epoch
    if saving_per_epoch <= 0:
        return None
    return math.ceil(offline_gap / saving_per_epoch)


def best_strategy_for_epochs(profiles: Sequence[StrategyProfile],
                             epochs: int) -> StrategyProfile:
    """The strategy minimising end-to-end time at this epoch horizon."""
    if not profiles:
        raise ProfilingError("no profiles")
    return min(profiles, key=lambda profile: total_time(profile, epochs))


def amortization_frame(profiles: Sequence[StrategyProfile],
                       horizons: Sequence[int] = (1, 5, 20, 100)) -> Frame:
    """Total hours per strategy across epoch horizons, plus the winner."""
    records = []
    for epochs in horizons:
        winner = best_strategy_for_epochs(profiles, epochs)
        for profile in profiles:
            records.append({
                "epochs": epochs,
                "strategy": profile.strategy.split_name,
                "total_hours": round(total_time(profile, epochs) / 3600, 2),
                "winner": winner.strategy.split_name,
            })
    return Frame.from_records(records)
