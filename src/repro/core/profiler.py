"""Strategy profiles: the results of PRESTO's ``profile_strategy()``.

A :class:`StrategyProfile` aggregates the paper's three key metrics --
preprocessing time, storage consumption and throughput -- over a
strategy's repeated runs; :func:`profiles_frame` collects profiles into
a :class:`~repro.core.frame.Frame`.  The profiles themselves come from
the :class:`~repro.exec.engine.SweepEngine`, which runs strategies on a
backend (``runs_total`` repeats, optional ``sample_count`` subsets),
fans them out over worker pools (``jobs``) and memoizes them in a
content-addressed :class:`~repro.exec.cache.ProfileCache` (``cache``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, pstdev
from typing import Sequence

from repro.backends.base import StrategyRunResult
from repro.core.frame import Frame
from repro.core.strategy import Strategy
from repro.units import GB, MB


@dataclass
class StrategyProfile:
    """Aggregated metrics of one strategy over ``runs_total`` repetitions."""

    strategy: Strategy
    runs: list[StrategyRunResult] = field(default_factory=list)

    @property
    def result(self) -> StrategyRunResult:
        """The representative (first) run."""
        return self.runs[0]

    # -- the paper's three key metrics -------------------------------------

    @property
    def throughput(self) -> float:
        """Mean first-epoch throughput in samples/second (T4)."""
        return mean(run.throughput for run in self.runs)

    @property
    def throughput_stdev(self) -> float:
        return pstdev([run.throughput for run in self.runs])

    @property
    def preprocessing_seconds(self) -> float:
        return mean(run.preprocessing_seconds for run in self.runs)

    @property
    def storage_bytes(self) -> float:
        return self.result.storage_bytes

    @property
    def cached_throughput(self) -> float:
        """Mean last-epoch throughput (caching experiments)."""
        return mean(run.cached_throughput for run in self.runs)

    @property
    def trace(self):
        """The first-epoch resource trace, or None when not measured."""
        run = self.result
        return run.epochs[0].trace if run.epochs else None

    def to_record(self) -> dict:
        """Flatten into a result-frame row.

        When the backend measured a resource trace, the row grows the
        diagnosis columns: the four attribution fractions plus the
        binding resource (``bound``).
        """
        run = self.result
        record = {
            "pipeline": run.pipeline,
            "strategy": run.strategy,
            "uid": self.strategy.uid,
            "threads": run.config.threads,
            "compression": run.config.compression or "none",
            "cache_mode": run.config.cache_mode,
            "throughput_sps": self.throughput,
            "throughput_stdev": self.throughput_stdev,
            "cached_throughput_sps": self.cached_throughput,
            "preprocessing_s": self.preprocessing_seconds,
            "storage_gb": self.storage_bytes / GB,
            "avg_read_mb_s": run.epochs[0].avg_read_bw / MB,
            "cache_hit_rate": run.epochs[-1].cache_hit_rate,
            "app_cache_failed": run.app_cache_failed,
        }
        trace = self.trace
        if trace is not None:
            shares = trace.fractions()
            record.update({
                "cpu_frac": round(shares["cpu"], 4),
                "storage_frac": round(shares["storage"], 4),
                "decode_frac": round(shares["decode"], 4),
                "stall_frac": round(shares["stall"], 4),
                "bound": trace.dominant(),
            })
        return record


def profiles_frame(profiles: Sequence[StrategyProfile]) -> Frame:
    """Collect profiles into a result frame (the pandas substitute)."""
    return Frame.from_records([profile.to_record() for profile in profiles])
