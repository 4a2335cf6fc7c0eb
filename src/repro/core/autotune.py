"""Automatic strategy tuning.

PRESTO's end-to-end flow: enumerate the strategy grid, pre-screen it with
the cheap analytic model, profile the survivors on the accurate backend,
and rank with the user's objective weights.  Pre-screening mirrors the
paper's suggestion of probing infrastructure cheaply before committing to
full profiling runs (Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.analytic import AnalyticModel
from repro.backends.base import Backend, Environment
from repro.core.analysis import ObjectiveWeights, StrategyAnalysis
from repro.core.frame import Frame
from repro.core.profiler import StrategyProfile, profiles_frame
from repro.core.strategy import Strategy, enumerate_strategies
from repro.errors import ProfilingError
from repro.pipelines.base import PipelineSpec


@dataclass
class TuningReport:
    """Outcome of one auto-tuning session."""

    pipeline: str
    weights: ObjectiveWeights
    candidates: int
    screened: int
    best: StrategyProfile
    profiles: list[StrategyProfile] = field(default_factory=list)

    @property
    def best_strategy(self) -> Strategy:
        return self.best.strategy

    def frame(self) -> Frame:
        return profiles_frame(self.profiles)

    def describe(self) -> str:
        best = self.best
        return (
            f"pipeline {self.pipeline}: profiled {self.screened}/"
            f"{self.candidates} candidate strategies; best = "
            f"{best.strategy.name} at {best.throughput:.0f} SPS "
            f"({best.storage_bytes / 1e9:.1f} GB stored)"
        )


class AutoTuner:
    """Grid search with analytic pre-screening.

    ``runs_total``, ``jobs`` and ``cache`` configure the sweep engine
    that profiles the survivors of the analytic screen: they profile in
    parallel, and repeated tuning sessions reuse memoized profiles.
    """

    def __init__(self, backend: Backend,
                 environment: Optional[Environment] = None,
                 runs_total: int = 1,
                 jobs: int = 1,
                 cache=None):
        from repro.exec.engine import SweepEngine
        self.engine = SweepEngine(backend, jobs=jobs, cache=cache,
                                  runs_total=runs_total)
        self.analytic = AnalyticModel(environment
                                      or getattr(backend, "environment",
                                                 None)
                                      or Environment())

    def tune(self, pipeline: PipelineSpec,
             weights: Optional[ObjectiveWeights] = None,
             threads: Sequence[int] = (8,),
             compressions: Sequence[Optional[str]] = (None, "GZIP", "ZLIB"),
             cache_modes: Sequence[str] = ("none",),
             epochs: int = 1,
             screen_keep: float = 0.5,
             sample_count: Optional[int] = None) -> TuningReport:
        """Search the strategy grid for ``pipeline``.

        ``screen_keep`` is the fraction of candidates (by analytic
        throughput estimate) that survive to full profiling; 1.0 disables
        screening.
        """
        if not 0.0 < screen_keep <= 1.0:
            raise ProfilingError("screen_keep must be in (0, 1]")
        weights = weights or ObjectiveWeights()
        candidates = enumerate_strategies(
            pipeline, threads=threads, compressions=compressions,
            cache_modes=cache_modes, epochs=epochs)
        survivors = screen_strategies(candidates, screen_keep,
                                      self.analytic)
        profiles = self.engine.profile(survivors, sample_count=sample_count)
        analysis = StrategyAnalysis(profiles)
        return TuningReport(
            pipeline=pipeline.name,
            weights=weights,
            candidates=len(candidates),
            screened=len(survivors),
            best=analysis.best(weights),
            profiles=profiles,
        )


def screen_strategies(candidates: list[Strategy], keep: float,
                      model: AnalyticModel) -> list[Strategy]:
    """Keep the analytically-most-promising fraction of the grid.

    Every distinct split point always survives (screening tunes the
    knob dimensions, never silently removes a split from the search).
    Shared by :class:`AutoTuner` and the declarative API's
    :func:`repro.api.plan.build_plan`, so planned and executed job
    counts can never drift apart.
    """
    if keep >= 1.0 or len(candidates) <= 2:
        return candidates
    estimated = [
        (model.estimate(strategy.plan, strategy.config).throughput,
         index, strategy)
        for index, strategy in enumerate(candidates)
    ]
    n_keep = max(2, int(round(len(candidates) * keep)))
    by_quality = sorted(estimated, key=lambda item: -item[0])
    kept = {index for _, index, _ in by_quality[:n_keep]}
    # Guarantee split-point coverage.
    seen_splits: dict[str, int] = {}
    for estimate, index, strategy in by_quality:
        name = strategy.split_name
        if name not in seen_splits:
            seen_splits[name] = index
    kept.update(seen_splits.values())
    return [strategy for index, strategy in
            enumerate(candidates) if index in kept]
