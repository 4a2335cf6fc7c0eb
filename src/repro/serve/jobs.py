"""Job specifications and arrival-trace generators for the service.

A multi-tenant preprocessing service is driven by a *trace*: a list of
:class:`JobSpec` records, one per tenant job, each naming a pipeline, a
preprocessing strategy (the representation to materialise), an arrival
time and execution knobs.  Traces are generated deterministically from a
seed so every service simulation -- and therefore every golden output --
is reproducible bit-for-bit.

Four load shapes cover the scenarios the paper's Sec. 7 discussion and
the data-stall literature care about:

* ``steady``  -- evenly spaced arrivals, mixed pipelines; the baseline.
* ``bursty``  -- tenants arrive in tight bursts and most of a burst
  wants the *same* (pipeline, strategy) artifact, so offline dedup and
  cache co-location have something to win.
* ``diurnal`` -- arrivals follow a sinusoidal day/night intensity curve,
  producing alternating contention peaks and idle valleys.
* ``poisson`` -- memoryless arrivals with exponential inter-arrival
  gaps, the M/G/k reference shape for queueing-style studies.
* ``operations`` -- the long-horizon shape: several diurnal "days" of
  load with seeded burst mornings, the operations-review timeline the
  chaos engine (:mod:`repro.faults`) injects fault windows into.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.backends.base import CACHE_SYSTEM, RunConfig
from repro.errors import ProfilingError
from repro.pipelines.base import SplitPlan

#: Trace shapes understood by :func:`generate_trace`.
TRACE_KINDS = ("steady", "bursty", "diurnal", "poisson", "operations")

#: Default pipeline mix for generated traces (small/medium datasets so
#: service simulations stay fast; all are registry-reconstructible).
DEFAULT_PIPELINE_MIX = ("MP3", "FLAC", "CV2-JPG", "NILM")


@dataclass(frozen=True)
class JobSpec:
    """One tenant's training job as submitted to the service.

    ``split`` names the representation the job materialises offline
    (the strategy); ``priority`` weights fair-share scheduling;
    ``slo_stretch`` defines the epoch-time SLO as a multiple of the
    uncontended analytic epoch time (``None`` disables SLO tracking).
    """

    tenant: str
    pipeline: str
    split: str
    arrival: float = 0.0
    epochs: int = 2
    threads: int = 8
    compression: Optional[str] = None
    priority: float = 1.0
    slo_stretch: Optional[float] = 2.5
    #: Fault injection: crash at the start of this epoch (``None`` = never).
    #: Only the control plane (:mod:`repro.ctl`) honours these fields; the
    #: plain service ignores them, so existing traces stay byte-identical.
    crash_epoch: Optional[int] = None
    #: The crash fires on the first this-many execution attempts, after
    #: which the job runs clean -- the transient-fault shape that lets a
    #: retry policy actually rescue the job.
    crash_attempts: int = 1

    def __post_init__(self):
        # ``not x >= c`` rejects NaN as well; a bool is never a number.
        for name in ("arrival", "priority", "slo_stretch", "crash_epoch",
                     "crash_attempts"):
            if isinstance(getattr(self, name), bool):
                raise ProfilingError(
                    f"job {self.tenant!r}: {name} must be a number, "
                    f"got a boolean")
        if not self.arrival >= 0:
            raise ProfilingError(
                f"job {self.tenant!r}: negative arrival time")
        if not self.priority > 0:
            raise ProfilingError(
                f"job {self.tenant!r}: priority must be positive")
        if self.slo_stretch is not None and not self.slo_stretch > 0:
            raise ProfilingError(
                f"job {self.tenant!r}: slo_stretch must be positive")
        if self.crash_epoch is not None and not self.crash_epoch >= 0:
            raise ProfilingError(
                f"job {self.tenant!r}: crash_epoch must be >= 0")
        if not self.crash_attempts >= 1:
            raise ProfilingError(
                f"job {self.tenant!r}: crash_attempts must be >= 1")

    @property
    def artifact(self) -> tuple:
        """Content identity of the materialised dataset this job reads.

        Jobs with equal artifacts produce byte-identical offline output,
        so a cache-aware scheduler may legally deduplicate them.
        """
        return (self.pipeline, self.split, self.compression)

    def run_config(self) -> RunConfig:
        """The per-job run configuration inside the service.

        The service owns one shared page cache that persists across
        epochs and tenants, so jobs always run under system caching.
        """
        return RunConfig(threads=self.threads, epochs=self.epochs,
                         compression=self.compression,
                         cache_mode=CACHE_SYSTEM)

    def resolve_plan(self) -> SplitPlan:
        """Build the split plan from the pipeline registry."""
        from repro.pipelines.registry import get_pipeline
        plan = get_pipeline(self.pipeline).split_at(self.split)
        if plan.is_unprocessed and self.compression:
            raise ProfilingError(
                f"job {self.tenant!r}: compression on the unprocessed "
                "strategy is not meaningful (paper Sec. 4.3)")
        return plan

    def describe(self) -> str:
        return (f"{self.tenant}: {self.pipeline}/{self.split} "
                f"@{self.arrival:.0f}s x{self.epochs} epochs "
                f"(prio {self.priority:g})")


def _materialized_split(rng: random.Random, pipeline_name: str,
                        unprocessed_share: float = 0.15) -> str:
    """Pick a strategy: usually a materialised split, sometimes raw."""
    from repro.pipelines.registry import get_pipeline
    names = get_pipeline(pipeline_name).strategy_names()
    if len(names) > 1 and rng.random() >= unprocessed_share:
        return rng.choice(names[1:])
    return names[0]


def _priority(rng: random.Random) -> float:
    """Most tenants are best-effort; every fourth-ish is premium."""
    return rng.choice((1.0, 1.0, 1.0, 2.0))


def steady_trace(tenants: int, seed: int = 0,
                 pipelines: Sequence[str] = DEFAULT_PIPELINE_MIX,
                 interval: float = 120.0, epochs: int = 2,
                 threads: int = 8,
                 jobs_per_tenant: int = 1) -> list[JobSpec]:
    """Evenly spaced arrivals over a mixed pipeline population.

    ``jobs_per_tenant > 1`` makes each tenant resubmit across rounds
    (``tenant-i`` reappears every ``tenants`` arrivals) -- the repeat
    customers that give fair-share scheduling a consumed-service
    history to balance against.
    """
    _validate(tenants, pipelines, jobs_per_tenant)
    rng = random.Random(seed)
    jobs = []
    for index in range(tenants * jobs_per_tenant):
        pipeline = rng.choice(tuple(pipelines))
        jobs.append(JobSpec(
            tenant=f"tenant-{index % tenants}", pipeline=pipeline,
            split=_materialized_split(rng, pipeline),
            arrival=index * interval, epochs=epochs, threads=threads,
            priority=_priority(rng)))
    return jobs


def bursty_trace(tenants: int, seed: int = 0,
                 pipelines: Sequence[str] = DEFAULT_PIPELINE_MIX,
                 burst_size: int = 4, burst_gap: float = 900.0,
                 hot_share: float = 0.75, epochs: int = 2,
                 threads: int = 8,
                 jobs_per_tenant: int = 1,
                 hot_pipeline: Optional[str] = None,
                 hot_split: Optional[str] = None) -> list[JobSpec]:
    """Tight arrival bursts with a *hot* shared artifact.

    ``hot_share`` of every burst requests the same (pipeline, strategy)
    pair -- the many-users-one-dataset pattern where cross-tenant cache
    sharing and offline dedup pay off.  ``jobs_per_tenant > 1`` cycles
    the tenant population through later bursts.

    The hot artifact defaults to a seeded pick of the most-processed
    strategy; ``hot_pipeline``/``hot_split`` pin it instead (e.g. the
    raw CV2-PNG dataset, whose working set exceeds the page cache --
    the storage-thrashing regime the perf suite stresses at scale).
    """
    _validate(tenants, pipelines, jobs_per_tenant)
    if burst_size < 1:
        raise ProfilingError("burst_size must be >= 1")
    rng = random.Random(seed)
    rng_hot = rng.choice(tuple(pipelines))
    if hot_pipeline is None:
        hot_pipeline = rng_hot
    from repro.pipelines.registry import get_pipeline
    if hot_split is None:
        hot_split = get_pipeline(hot_pipeline).strategy_names()[-1]
    elif hot_split not in get_pipeline(hot_pipeline).strategy_names():
        raise ProfilingError(
            f"unknown strategy {hot_split!r} for pipeline {hot_pipeline!r}")
    jobs = []
    for index in range(tenants * jobs_per_tenant):
        burst = index // burst_size
        arrival = burst * burst_gap + (index % burst_size) * 1.0
        if rng.random() < hot_share:
            pipeline, split = hot_pipeline, hot_split
        else:
            pipeline = rng.choice(tuple(pipelines))
            split = _materialized_split(rng, pipeline)
        jobs.append(JobSpec(
            tenant=f"tenant-{index % tenants}", pipeline=pipeline,
            split=split, arrival=arrival, epochs=epochs, threads=threads,
            priority=_priority(rng)))
    return jobs


def _diurnal_arrivals(rng: random.Random, period: float,
                      count: int) -> list:
    """``count`` sorted arrival offsets in ``[0, period)`` drawn from the
    diurnal intensity curve.

    The period is divided into 24 "hours" whose arrival weight is
    ``1 + sin``-shaped, peaking mid-period.  Each arrival draws its hour,
    then its offset within the hour, from ``rng``.
    """
    import math
    buckets = 24
    bucket_len = period / buckets
    weights = [1.0 + math.sin(2 * math.pi * (hour + 0.5) / buckets -
                              math.pi / 2) for hour in range(buckets)]
    return sorted(
        rng.choices(range(buckets), weights=weights, k=1)[0] * bucket_len
        + rng.random() * bucket_len
        for _ in range(count))


def diurnal_trace(tenants: int, seed: int = 0,
                  pipelines: Sequence[str] = DEFAULT_PIPELINE_MIX,
                  period: float = 7200.0, epochs: int = 2,
                  threads: int = 8,
                  jobs_per_tenant: int = 1) -> list[JobSpec]:
    """Arrivals drawn from a sinusoidal day/night intensity curve.

    The ``period`` is divided into 24 "hours" whose arrival weight is
    ``1 + sin``-shaped, peaking mid-period; tenants cluster in the peak
    hours and leave the valleys nearly idle.
    """
    _validate(tenants, pipelines, jobs_per_tenant)
    rng = random.Random(seed)
    arrivals = _diurnal_arrivals(rng, period, tenants * jobs_per_tenant)
    jobs = []
    for index, arrival in enumerate(arrivals):
        pipeline = rng.choice(tuple(pipelines))
        jobs.append(JobSpec(
            tenant=f"tenant-{index % tenants}", pipeline=pipeline,
            split=_materialized_split(rng, pipeline),
            arrival=arrival, epochs=epochs, threads=threads,
            priority=_priority(rng)))
    return jobs


def poisson_trace(tenants: int, seed: int = 0,
                  pipelines: Sequence[str] = DEFAULT_PIPELINE_MIX,
                  interval: float = 120.0, epochs: int = 2,
                  threads: int = 8,
                  jobs_per_tenant: int = 1) -> list[JobSpec]:
    """Memoryless arrivals: exponential gaps at mean ``interval``.

    Same mean load as ``steady`` but with the clumping a Poisson
    process produces -- short pile-ups and long quiet gaps, the
    canonical open-loop arrival model.  The pipeline mix is drawn from
    the same RNG stream *after* each gap, so the schedule and the mix
    are reproducible together from the seed alone.
    """
    _validate(tenants, pipelines, jobs_per_tenant)
    if interval <= 0:
        raise ProfilingError("interval must be positive")
    rng = random.Random(seed)
    arrival = 0.0
    jobs = []
    for index in range(tenants * jobs_per_tenant):
        arrival += rng.expovariate(1.0 / interval)
        pipeline = rng.choice(tuple(pipelines))
        jobs.append(JobSpec(
            tenant=f"tenant-{index % tenants}", pipeline=pipeline,
            split=_materialized_split(rng, pipeline),
            arrival=arrival, epochs=epochs, threads=threads,
            priority=_priority(rng)))
    return jobs


def operations_trace(tenants: int, seed: int = 0,
                     pipelines: Sequence[str] = DEFAULT_PIPELINE_MIX,
                     days: int = 3, day_length: float = 7200.0,
                     epochs: int = 2, threads: int = 8,
                     jobs_per_tenant: int = 2) -> list[JobSpec]:
    """Days of diurnal load with a seeded burst each "morning".

    The long-horizon operations timeline: each of ``days`` simulated
    days carries one diurnal round of arrivals (same sinusoidal
    intensity as ``diurnal``) plus a tight morning burst that re-submits
    the day's first tenants against a shared hot artifact.  Tenants
    recur across days, so fair-share history, cache warmth and -- with a
    fault plan attached -- recovery costs all accumulate over a horizon
    long enough for brownout/straggler windows to land mid-load.
    """
    _validate(tenants, pipelines, jobs_per_tenant)
    if days < 1:
        raise ProfilingError("need at least one day")
    if day_length <= 0:
        raise ProfilingError("day_length must be positive")
    rng = random.Random(seed)
    hot_pipeline = rng.choice(tuple(pipelines))
    from repro.pipelines.registry import get_pipeline
    hot_split = get_pipeline(hot_pipeline).strategy_names()[-1]
    jobs = []
    index = 0
    per_day = tenants * jobs_per_tenant
    burst_size = max(1, min(per_day, tenants // 2))
    for day in range(days):
        day_start = day * day_length
        # The morning burst: a quarter into the day, burst_size tenants
        # hit the shared hot artifact within seconds of each other.
        for slot in range(burst_size):
            jobs.append(JobSpec(
                tenant=f"tenant-{index % tenants}",
                pipeline=hot_pipeline, split=hot_split,
                arrival=day_start + 0.25 * day_length + slot * 1.0,
                epochs=epochs, threads=threads,
                priority=_priority(rng)))
            index += 1
        # The diurnal background load for the rest of the day.
        arrivals = _diurnal_arrivals(rng, day_length,
                                     per_day - burst_size)
        for arrival in arrivals:
            pipeline = rng.choice(tuple(pipelines))
            jobs.append(JobSpec(
                tenant=f"tenant-{index % tenants}", pipeline=pipeline,
                split=_materialized_split(rng, pipeline),
                arrival=day_start + arrival, epochs=epochs,
                threads=threads, priority=_priority(rng)))
            index += 1
    jobs.sort(key=lambda job: job.arrival)
    return jobs


_GENERATORS = {
    "steady": steady_trace,
    "bursty": bursty_trace,
    "diurnal": diurnal_trace,
    "poisson": poisson_trace,
    "operations": operations_trace,
}


def generate_trace(kind: str, tenants: int, seed: int = 0,
                   fault_rate: float = 0.0, fault_attempts: int = 2,
                   **kwargs) -> list[JobSpec]:
    """Generate a named trace shape (see :data:`TRACE_KINDS`).

    ``fault_rate`` marks that fraction of jobs (seeded, independent of
    the arrival randomness) with a mid-run crash via
    :func:`inject_faults`; at the default 0.0 the trace is byte-for-byte
    what it was before fault injection existed.
    """
    if kind not in _GENERATORS:
        raise ProfilingError(
            f"unknown trace kind {kind!r}; known: {sorted(_GENERATORS)}")
    jobs = _GENERATORS[kind](tenants, seed=seed, **kwargs)
    if fault_rate:
        jobs = inject_faults(jobs, fault_rate, seed=seed,
                             max_crash_attempts=fault_attempts)
    return jobs


def inject_faults(jobs: Sequence[JobSpec], fault_rate: float,
                  seed: int = 0,
                  max_crash_attempts: int = 2) -> list[JobSpec]:
    """Seed a fraction of ``jobs`` with a mid-run crash.

    Each selected job gets a ``crash_epoch`` drawn uniformly over its
    epochs and a ``crash_attempts`` count in ``[1, max_crash_attempts]``
    -- so some faults are rescued by a single retry while others burn
    through more of the retry budget.  The fault stream uses its own
    namespaced RNG: injecting at rate 0.0 < r <= 1.0 never perturbs the
    arrival/pipeline randomness of the underlying trace.
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ProfilingError(
            f"fault_rate must be within [0, 1], got {fault_rate!r}")
    if max_crash_attempts < 1:
        raise ProfilingError("max_crash_attempts must be >= 1")
    rng = random.Random(f"faults-{seed}")
    out = []
    for job in jobs:
        if rng.random() < fault_rate:
            out.append(replace(
                job, crash_epoch=rng.randrange(max(job.epochs, 1)),
                crash_attempts=rng.randint(1, max_crash_attempts)))
        else:
            out.append(job)
    return out


def with_epochs(jobs: Sequence[JobSpec], epochs: int) -> list[JobSpec]:
    """A copy of ``jobs`` with every epoch count replaced."""
    return [replace(job, epochs=epochs) for job in jobs]


def _validate(tenants: int, pipelines: Sequence[str],
              jobs_per_tenant: int = 1) -> None:
    if tenants < 1:
        raise ProfilingError("need at least one tenant")
    if not pipelines:
        raise ProfilingError("need at least one candidate pipeline")
    if jobs_per_tenant < 1:
        raise ProfilingError("need at least one job per tenant")
