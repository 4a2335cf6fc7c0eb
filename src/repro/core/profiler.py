"""The strategy profiler: PRESTO's ``profile_strategy()``.

Runs strategies on a backend, repeats runs (``runs_total``), optionally
profiles only a subset of the dataset (``sample_count``) and aggregates
the paper's three key metrics -- preprocessing time, storage consumption
and throughput -- into result records / a :class:`~repro.core.frame.Frame`.

Execution is delegated to the :class:`~repro.exec.engine.SweepEngine`, so
profiling can fan out over worker pools (``jobs``) and memoize results in
a content-addressed :class:`~repro.exec.cache.ProfileCache` (``cache``)
without any caller changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, pstdev
from typing import Optional, Sequence

from repro.backends.base import Backend, RunConfig, StrategyRunResult
from repro.core.frame import Frame
from repro.core.strategy import Strategy, enumerate_strategies
from repro.errors import ProfilingError
from repro.pipelines.base import PipelineSpec, SplitPlan
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


class StrategyProfiler:
    """Profiles strategies on a backend and collects result frames.

    ``jobs`` fans profiling out over a worker pool (``None``/1 keeps the
    serial reference behaviour), ``cache`` memoizes results across calls;
    both are forwarded to the underlying sweep engine.
    """

    def __init__(self, backend: Backend, runs_total: int = 1,
                 jobs: Optional[int] = None, cache=None):
        if runs_total < 1:
            raise ProfilingError("runs_total must be >= 1")
        self.backend = backend
        self.runs_total = runs_total
        from repro.exec.engine import SweepEngine
        self.engine = SweepEngine(backend, executor=jobs, cache=cache,
                                  runs_total=runs_total)

    def profile_strategy(self, strategy: Strategy,
                         sample_count: Optional[int] = None,
                         ) -> StrategyProfile:
        """Run one strategy ``runs_total`` times.

        ``sample_count`` profiles a dataset subset, the paper's knob for
        cheap first looks (it recommends full-dataset profiling because
        some bottlenecks only appear once caches fill -- Sec. 3.1).
        """
        return self.engine.profile([strategy],
                                   sample_count=sample_count)[0]

    def profile_pipeline(self, pipeline: PipelineSpec,
                         config: Optional[RunConfig] = None,
                         sample_count: Optional[int] = None,
                         ) -> list[StrategyProfile]:
        """Profile every legal split of ``pipeline`` under one config."""
        return self.engine.profile_pipeline(pipeline, config=config,
                                            sample_count=sample_count)

    def profile_grid(self, strategies: Sequence[Strategy],
                     sample_count: Optional[int] = None,
                     ) -> list[StrategyProfile]:
        """Profile an explicit strategy grid (see
        :func:`repro.core.strategy.enumerate_strategies`)."""
        return self.engine.profile(strategies, sample_count=sample_count)

    @staticmethod
    def to_frame(profiles: Sequence[StrategyProfile]) -> Frame:
        """Collect profiles into a result frame (the pandas substitute)."""
        return Frame.from_records(
            [profile.to_record() for profile in profiles])
