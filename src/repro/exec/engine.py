"""The parallel strategy-sweep engine.

PRESTO's profiler originally walked every (pipeline, strategy) pair
serially and recomputed identical profiles on every invocation -- the
exact hidden preprocessing cost the paper warns about.  The
:class:`SweepEngine` fixes both pathologies:

* ``jobs`` > 1 fans profiling jobs out over a ``concurrent.futures``
  process pool, with results always returned in submission order so
  parallel sweeps are byte-identical to serial ones;
* a content-addressed :class:`~repro.exec.cache.ProfileCache` keyed by
  (pipeline, strategy, environment, backend) fingerprints memoizes runs
  across calls -- and across processes when the cache is persistent;
* :class:`~repro.exec.events.SweepEvent` records stream to listeners
  (:meth:`SweepEngine.add_listener`) so long sweeps are observable.

Every profiling caller -- the CLI, :class:`~repro.api.session.Session`,
:class:`~repro.core.autotune.AutoTuner` and
:class:`~repro.diagnosis.doctor.BottleneckDoctor` -- builds one of these.

Process-pool note: pipeline specs carry step callables (lambdas,
closures) and do not pickle, so process workers rebuild their plan from
the pipeline *registry* by name.  Jobs whose pipeline is not
reconstructible that way -- mutated specs, ad-hoc pipelines -- are
detected up front and transparently run on a thread pool instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.base import Backend, Environment, RunConfig, \
    StrategyRunResult
from repro.core.profiler import StrategyProfile
from repro.core.strategy import Strategy, strategies_for
from repro.errors import SweepError
from repro.exec.cache import ProfileCache
from repro.exec.events import (CACHE_HIT, JOB_DONE, SWEEP_END, SWEEP_START,
                               SweepEvent, SweepListener)
from repro.exec.fingerprint import describe_pipeline, job_fingerprint
from repro.pipelines.base import PipelineSpec, SplitPlan


@dataclass(frozen=True)
class _JobPayload:
    """One unit of pool work: run a strategy ``runs_total`` times.

    Carries either a live ``plan`` (serial/thread execution) or a
    registry reference (``pipeline_name`` + ``sample_count`` +
    ``split_index``) that process workers rebuild locally.
    """

    backend: Backend
    config: RunConfig
    runs_total: int
    plan: Optional[SplitPlan] = None
    pipeline_name: str = ""
    sample_count: int = 0
    split_index: int = 0

    def resolve_plan(self) -> SplitPlan:
        if self.plan is not None:
            return self.plan
        from repro.pipelines.registry import get_pipeline
        pipeline = get_pipeline(self.pipeline_name)
        if pipeline.sample_count != self.sample_count:
            pipeline = pipeline.with_sample_count(self.sample_count)
        return pipeline.split_at(self.split_index)


def _execute_payload(payload: _JobPayload,
                     ) -> tuple[list[StrategyRunResult], float]:
    """Module-level worker entry point (picklable for process pools).

    Returns the run results plus the job's own wall-clock seconds, so
    progress events report true per-job durations even under pools.
    """
    started = time.perf_counter()
    plan = payload.resolve_plan()
    runs = [payload.backend.run(plan, payload.config)
            for _ in range(payload.runs_total)]
    return runs, time.perf_counter() - started


@dataclass
class SweepResult:
    """Outcome of one multi-pipeline sweep, in submission order."""

    profiles: dict[str, list[StrategyProfile]] = field(default_factory=dict)
    #: Wall-clock seconds of the whole sweep.
    elapsed: float = 0.0

    @property
    def pipelines(self) -> list[str]:
        return list(self.profiles)

    @property
    def job_count(self) -> int:
        return sum(len(plist) for plist in self.profiles.values())

    def all_profiles(self) -> list[StrategyProfile]:
        return [profile for plist in self.profiles.values()
                for profile in plist]


class SweepEngine:
    """Profiles strategies on a backend: ``jobs`` workers, memoized via a
    cache, each strategy run ``runs_total`` times (PRESTO's
    ``profile_strategy()``)."""

    def __init__(self, backend: Backend, jobs: int = 1,
                 cache: Optional[ProfileCache] = None,
                 runs_total: int = 1):
        if type(jobs) is not int or jobs < 1:
            raise SweepError(f"jobs must be an integer >= 1, got {jobs!r}")
        if runs_total < 1:
            raise SweepError("runs_total must be >= 1")
        self.backend = backend
        self.jobs = jobs
        self.cache = cache
        self.runs_total = runs_total
        self.listeners: list[SweepListener] = []
        self.environment = getattr(backend, "environment", None) \
            or Environment()

    # -- observability -----------------------------------------------------

    def add_listener(self, listener: SweepListener) -> None:
        self.listeners.append(listener)

    def _emit(self, event: SweepEvent) -> None:
        for listener in self.listeners:
            listener(event)

    # -- profiling ---------------------------------------------------------

    def profile(self, strategies: Sequence[Strategy],
                sample_count: Optional[int] = None,
                ) -> list[StrategyProfile]:
        """Profile ``strategies``, returning profiles in input order.

        Cache hits never reach a worker; misses fan out and are stored
        back.  ``sample_count`` profiles a dataset subset, the paper's
        knob for cheap first looks (it recommends full-dataset profiling
        because some bottlenecks only appear once caches fill -- Sec.
        3.1).
        """
        started = time.perf_counter()
        strategies = [self._resample(strategy, sample_count)
                      for strategy in strategies]
        total = len(strategies)
        self._emit(SweepEvent(kind=SWEEP_START, total=total))

        profiles: list[Optional[StrategyProfile]] = [None] * total
        pending: list[tuple[int, Strategy, Optional[str]]] = []
        for index, strategy in enumerate(strategies):
            key = self._fingerprint(strategy)
            cached = (self.cache.lookup(key, strategy)
                      if self.cache is not None and key is not None else None)
            if cached is not None:
                profiles[index] = cached
                self._emit(SweepEvent(
                    kind=CACHE_HIT, index=index + 1, total=total,
                    pipeline=strategy.pipeline_name, strategy=strategy.name,
                    uid=strategy.uid, cached=True))
            else:
                pending.append((index, strategy, key))

        if pending:
            outcomes = self._run([strategy for _, strategy, _ in pending])
            for (index, strategy, key), (runs, elapsed) in zip(pending,
                                                               outcomes):
                profile = StrategyProfile(strategy=strategy, runs=list(runs))
                if self.cache is not None and key is not None:
                    self.cache.store(key, profile)
                profiles[index] = profile
                self._emit(SweepEvent(
                    kind=JOB_DONE, index=index + 1, total=total,
                    pipeline=strategy.pipeline_name, strategy=strategy.name,
                    uid=strategy.uid, elapsed=elapsed))

        self._emit(SweepEvent(kind=SWEEP_END, total=total,
                              elapsed=time.perf_counter() - started))
        return [profile for profile in profiles if profile is not None]

    def profile_pipeline(self, pipeline: PipelineSpec,
                         config: Optional[RunConfig] = None,
                         sample_count: Optional[int] = None,
                         ) -> list[StrategyProfile]:
        """Profile every legal split of ``pipeline`` under one config."""
        config = config or RunConfig()
        return self.profile(strategies_for(pipeline, config),
                            sample_count=sample_count)

    def sweep(self, pipelines: Optional[Sequence[PipelineSpec]] = None,
              config: Optional[RunConfig] = None,
              sample_count: Optional[int] = None) -> SweepResult:
        """Profile every legal strategy of every pipeline in one fan-out.

        Defaults to the paper's seven pipelines.  All jobs across all
        pipelines share one pool, so parallelism is not gated per
        pipeline.
        """
        from repro.pipelines.registry import all_pipelines
        if pipelines is None:
            pipelines = all_pipelines()
        config = config or RunConfig()
        flat: list[Strategy] = []
        counts: list[tuple[str, int]] = []
        for pipeline in pipelines:
            strategies = strategies_for(pipeline, config)
            flat.extend(strategies)
            counts.append((pipeline.name, len(strategies)))
        started = time.perf_counter()
        profiles = self.profile(flat, sample_count=sample_count)
        result = SweepResult(elapsed=time.perf_counter() - started)
        cursor = 0
        for name, count in counts:
            # setdefault+extend so a pipeline listed twice aggregates
            # instead of silently overwriting its first slice.
            result.profiles.setdefault(name, []).extend(
                profiles[cursor:cursor + count])
            cursor += count
        return result

    # -- internals ---------------------------------------------------------

    def _resample(self, strategy: Strategy,
                  sample_count: Optional[int]) -> Strategy:
        if sample_count is None:
            return strategy
        plan = strategy.plan
        pipeline = plan.pipeline.with_sample_count(sample_count)
        return Strategy(pipeline.split_at(plan.split_index), strategy.config)

    def _fingerprint(self, strategy: Strategy) -> Optional[str]:
        if self.cache is None:
            return None
        return job_fingerprint(strategy, self.environment, self.backend,
                               runs_total=self.runs_total)

    def _portable(self, strategy: Strategy) -> bool:
        """Can a process worker rebuild this job from the registry?"""
        from repro.pipelines.registry import _BUILDERS, get_pipeline
        pipeline = strategy.plan.pipeline
        if pipeline.name not in _BUILDERS:
            return False
        rebuilt = get_pipeline(pipeline.name)
        if rebuilt.sample_count != pipeline.sample_count:
            rebuilt = rebuilt.with_sample_count(pipeline.sample_count)
        return describe_pipeline(rebuilt) == describe_pipeline(pipeline)

    def _run(self, strategies: list[Strategy],
             ) -> list[tuple[list[StrategyRunResult], float]]:
        """Execute ``strategies`` in submission order: inline at
        ``jobs == 1``, else on a process pool -- or a thread pool when
        some pipeline cannot be rebuilt from the registry."""
        if self.jobs == 1:
            return [_execute_payload(self._payload(strategy, False))
                    for strategy in strategies]
        from concurrent.futures import (ProcessPoolExecutor,
                                        ThreadPoolExecutor)
        # Process workers get registry references (plans don't pickle);
        # thread workers get the live plan.
        ship_by_name = all(self._portable(strategy)
                           for strategy in strategies)
        pool_cls = (ProcessPoolExecutor if ship_by_name
                    else ThreadPoolExecutor)
        payloads = [self._payload(strategy, ship_by_name)
                    for strategy in strategies]
        with pool_cls(max_workers=min(self.jobs, len(payloads))) as pool:
            return list(pool.map(_execute_payload, payloads))

    def _payload(self, strategy: Strategy, ship_by_name: bool) -> _JobPayload:
        plan = strategy.plan
        if ship_by_name:
            return _JobPayload(
                backend=self.backend, config=strategy.config,
                runs_total=self.runs_total, plan=None,
                pipeline_name=plan.pipeline.name,
                sample_count=plan.pipeline.sample_count,
                split_index=plan.split_index)
        return _JobPayload(backend=self.backend, config=strategy.config,
                           runs_total=self.runs_total, plan=plan)
