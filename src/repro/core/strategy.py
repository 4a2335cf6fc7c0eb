"""Strategies: a pipeline split plus execution knobs.

PRESTO's ``Strategy`` wrapper (paper Sec. 3.1) splits a pipeline at a
given step into offline and online parts and carries the additional
parameters: parallelism, sharding, caching behaviour and compression
format.  :func:`enumerate_strategies` generates the grid the profiler and
auto-tuner walk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.backends.base import CACHE_NONE, RunConfig
from repro.pipelines.base import PipelineSpec, SplitPlan


@dataclass(frozen=True)
class Strategy:
    """One fully-specified way to execute a preprocessing pipeline."""

    plan: SplitPlan
    config: RunConfig

    @property
    def pipeline_name(self) -> str:
        return self.plan.pipeline.name

    @property
    def split_name(self) -> str:
        """The materialised representation, e.g. ``resized``."""
        return self.plan.strategy_name

    @property
    def name(self) -> str:
        """Human-readable identity used in result frames."""
        parts = [self.split_name, f"threads={self.config.threads}"]
        if self.config.compression:
            parts.append(f"comp={self.config.compression}")
        if self.config.cache_mode != CACHE_NONE:
            parts.append(f"cache={self.config.cache_mode}")
        if self.config.shuffle_buffer:
            parts.append(f"shuffle={self.config.shuffle_buffer}")
        return "[" + ", ".join(parts) + "]"

    @property
    def uid(self) -> str:
        """Stable short hash identifying this strategy (the paper logs a
        unique hash per profiled strategy)."""
        payload = "|".join([
            self.pipeline_name, self.split_name,
            str(self.config.threads), str(self.config.compression),
            self.config.cache_mode, str(self.config.effective_shards),
            str(self.config.epochs), str(self.config.shuffle_buffer),
        ])
        return hashlib.sha1(payload.encode()).hexdigest()[:10]


def strategies_for(pipeline: PipelineSpec,
                    config: RunConfig) -> list[Strategy]:
    """Every legal split of ``pipeline`` under ``config`` (compressing
    the unprocessed representation is meaningless -- paper Sec. 4.3)."""
    return [Strategy(plan, config)
            for plan in pipeline.split_points()
            if not (plan.is_unprocessed and config.compression)]


def enumerate_strategies(
        pipeline: PipelineSpec,
        threads: Sequence[int] = (8,),
        compressions: Sequence[Optional[str]] = (None,),
        cache_modes: Sequence[str] = (CACHE_NONE,),
        epochs: int = 1,
        splits: Optional[Iterable[int | str]] = None) -> list[Strategy]:
    """Build the strategy grid for a pipeline.

    ``splits`` restricts the split points (defaults to all legal ones).
    Unprocessed+compression combinations are skipped, as in the paper
    (Sec. 4.3: compression cannot fix random-access-bound strategies).
    """
    if splits is None:
        plans = pipeline.split_points()
    else:
        plans = [pipeline.split_at(split) for split in splits]
    strategies = []
    for plan in plans:
        for n_threads in threads:
            for compression in compressions:
                if plan.is_unprocessed and compression is not None:
                    continue
                for cache_mode in cache_modes:
                    strategies.append(Strategy(plan, RunConfig(
                        threads=n_threads,
                        epochs=epochs,
                        compression=compression,
                        cache_mode=cache_mode)))
    return strategies
