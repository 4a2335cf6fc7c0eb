"""Request workloads and seeded arrival processes for streaming serving.

A streaming tenant is described by a :class:`StreamTenantSpec`: which
pipeline/strategy its requests read, how requests arrive (a seeded
``poisson``/``burst``/``diurnal`` process), how many samples each
request batches, how many concurrent workers pull from its queue, and
its latency SLO (a stretch over the uncontended analytic batch time).

Specs expand deterministically into :class:`RequestPlan` tuples --
pre-computed arrival timestamps plus the dataset chunk each request
strides over -- so every stream simulation (and therefore every golden
output) is reproducible bit-for-bit from the seed alone.

:func:`epoch_request_plans` is the differential bridge: it converts a
training epoch's :func:`~repro.backends.simulated.partition_jobs`
partition into an equivalent zero-jitter request stream (one request
per job, pinned to its thread's worker, all arriving at t=0, every
chunk cold), which the engine must replay to the same timings as the
epoch itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.backends.base import RunConfig
from repro.errors import ProfilingError
from repro.pipelines.base import SplitPlan
from repro.serve.jobs import (DEFAULT_PIPELINE_MIX, _diurnal_arrivals,
                             _materialized_split)

#: Arrival-process shapes understood by :func:`arrival_schedule`.
ARRIVAL_KINDS = ("poisson", "burst", "diurnal")

#: Requests per burst of the ``burst`` arrival process.
BURST_SIZE = 4


@dataclass(frozen=True)
class StreamTenantSpec:
    """One tenant's request stream as submitted to the service.

    ``batch`` is the batch-size-vs-latency knob: larger batches
    amortize per-request overheads (higher throughput) but every
    request serves more samples (higher latency).  ``workers`` is the
    prefetch depth -- concurrent request processors sharing the
    tenant's queue.  ``queue_bound`` caps waiting requests (0 =
    unbounded); when full, arrivals block (backpressure) or, with
    ``shed=True``, are dropped and counted as deadline misses.
    ``slo_stretch`` sets each request's latency budget as a multiple
    of the uncontended analytic batch service time (``None`` disables
    deadlines).
    """

    tenant: str
    pipeline: str
    split: str
    arrival: str = "poisson"
    rate: float = 1.0            # mean requests per second
    requests: int = 32
    batch: int = 32              # samples per request
    workers: int = 2             # concurrent request processors
    queue_bound: int = 0         # max waiting requests; 0 = unbounded
    slo_stretch: Optional[float] = 3.0
    shed: bool = False
    start: float = 0.0           # stream start offset in seconds

    def __post_init__(self):
        if self.arrival not in ARRIVAL_KINDS:
            raise ProfilingError(
                f"stream {self.tenant!r}: unknown arrival kind "
                f"{self.arrival!r}; known: {sorted(ARRIVAL_KINDS)}")
        if self.rate <= 0:
            raise ProfilingError(
                f"stream {self.tenant!r}: rate must be positive")
        if self.requests < 1:
            raise ProfilingError(
                f"stream {self.tenant!r}: need at least one request")
        if self.batch < 1:
            raise ProfilingError(
                f"stream {self.tenant!r}: batch must be >= 1")
        if self.workers < 1:
            raise ProfilingError(
                f"stream {self.tenant!r}: need at least one worker")
        if self.queue_bound < 0:
            raise ProfilingError(
                f"stream {self.tenant!r}: queue_bound must be >= 0")
        if self.slo_stretch is not None and self.slo_stretch <= 0:
            raise ProfilingError(
                f"stream {self.tenant!r}: slo_stretch must be positive")
        if self.start < 0:
            raise ProfilingError(
                f"stream {self.tenant!r}: negative start time")

    def resolve_plan(self) -> SplitPlan:
        """Build the split plan from the pipeline registry."""
        from repro.pipelines.registry import get_pipeline
        return get_pipeline(self.pipeline).split_at(self.split)

    def describe(self) -> str:
        return (f"{self.tenant}: {self.pipeline}/{self.split} "
                f"{self.arrival}@{self.rate:g}/s x{self.requests} "
                f"(batch {self.batch}, {self.workers} workers)")


@dataclass(frozen=True)
class RequestPlan:
    """One planned request: when it arrives and what it reads.

    ``chunk`` identifies the dataset chunk the request strides over;
    requests re-reading a chunk hit the shared page cache.  ``worker``
    pins the request to one worker's queue (sharded dispatch, the
    differential vehicle); ``None`` means any worker may serve it.
    """

    index: int
    arrival: float
    batch: int
    chunk: int
    worker: Optional[int] = None


def _schedule_rng(spec: StreamTenantSpec, seed: int) -> random.Random:
    """Namespaced per-tenant RNG: one tenant's schedule never perturbs
    another's, and changing the arrival kind re-seeds from scratch."""
    return random.Random(f"stream-{seed}-{spec.tenant}-{spec.arrival}")


def _poisson_schedule(spec: StreamTenantSpec, seed: int) -> tuple:
    rng = _schedule_rng(spec, seed)
    now = spec.start
    times = []
    for _ in range(spec.requests):
        now += rng.expovariate(spec.rate)
        times.append(now)
    return tuple(times)


def _burst_schedule(spec: StreamTenantSpec, seed: int) -> tuple:
    """Bursts of :data:`BURST_SIZE` back-to-back requests whose burst
    gaps preserve the mean rate."""
    rng = _schedule_rng(spec, seed)
    intra = 0.05 / spec.rate
    now = spec.start
    times = []
    while len(times) < spec.requests:
        now += rng.expovariate(spec.rate / BURST_SIZE)
        for offset in range(BURST_SIZE):
            if len(times) >= spec.requests:
                break
            times.append(now + offset * intra)
    return tuple(sorted(times))


def _diurnal_schedule(spec: StreamTenantSpec, seed: int) -> tuple:
    """Arrivals over one sinusoidal day whose length is the nominal
    stream duration (requests / rate), peaking mid-period."""
    times = _diurnal_arrivals(_schedule_rng(spec, seed),
                              spec.requests / spec.rate, spec.requests)
    return tuple(spec.start + time for time in times)


_SCHEDULES = {
    "poisson": _poisson_schedule,
    "burst": _burst_schedule,
    "diurnal": _diurnal_schedule,
}


def arrival_schedule(spec: StreamTenantSpec, seed: int = 0) -> tuple:
    """The tenant's sorted request arrival timestamps (seconds)."""
    return _SCHEDULES[spec.arrival](spec, seed)


def request_chunks(requests: int, chunk_count: int) -> Iterator[int]:
    """The dataset chunk of each of ``requests`` requests, in order.

    Requests stride round-robin over ``chunk_count`` dataset chunks,
    so a small working set re-reads warm page-cache chunks while a
    large one keeps missing -- the same hot/cold distinction the epoch
    model exhibits across epochs.
    """
    if chunk_count < 1:
        raise ProfilingError("chunk_count must be >= 1")
    return (index % chunk_count for index in range(requests))


def request_plans(spec: StreamTenantSpec, seed: int = 0,
                  chunk_count: int = 1) -> tuple:
    """Expand ``spec`` into its planned requests (chunks per
    :func:`request_chunks`)."""
    arrivals = arrival_schedule(spec, seed)
    chunks = request_chunks(len(arrivals), chunk_count)
    return tuple(
        RequestPlan(index=index, arrival=arrival, batch=spec.batch,
                    chunk=chunk)
        for index, (arrival, chunk) in enumerate(zip(arrivals, chunks)))


def epoch_request_plans(plan: SplitPlan, config: RunConfig) -> tuple:
    """One training epoch re-expressed as a zero-jitter request stream.

    Mirrors :func:`~repro.backends.simulated.partition_jobs` exactly:
    one request per job, carrying the job's sample count, pinned to the
    worker matching its thread, all arriving at t=0.  Chunk ids are
    unique negatives so every read is a cold miss, like epoch 0 of a
    training run.  Replaying these plans through the engine must
    reproduce the epoch's timings (the differential wall pins ~1e-12).
    """
    from repro.backends.simulated import partition_jobs
    plans = []
    index = 0
    for thread_jobs in partition_jobs(plan.pipeline.sample_count,
                                      config.threads, config.max_jobs):
        for job in thread_jobs:
            plans.append(RequestPlan(
                index=index, arrival=0.0, batch=job.samples,
                chunk=-(index + 1), worker=job.thread_id))
            index += 1
    return tuple(plans)


def generate_stream(tenants: int, seed: int = 0,
                    arrival: str = "poisson", rate: float = 1.0,
                    requests: int = 32, batch: int = 32,
                    workers: int = 2, queue_bound: int = 0,
                    slo_stretch: Optional[float] = 3.0,
                    shed: bool = False,
                    pipelines: Sequence[str] = DEFAULT_PIPELINE_MIX,
                    ) -> list:
    """A seeded tenant population of request streams.

    The pipeline/strategy mix is drawn from its own namespaced RNG
    (like the serve trace generators), so the mix and each tenant's
    arrival schedule are independently reproducible.
    """
    if tenants < 1:
        raise ProfilingError("need at least one tenant stream")
    if not pipelines:
        raise ProfilingError("need at least one candidate pipeline")
    rng = random.Random(f"stream-mix-{seed}")
    streams = []
    for index in range(tenants):
        pipeline = rng.choice(tuple(pipelines))
        streams.append(StreamTenantSpec(
            tenant=f"tenant-{index}", pipeline=pipeline,
            split=_materialized_split(rng, pipeline),
            arrival=arrival, rate=rate, requests=requests, batch=batch,
            workers=workers, queue_bound=queue_bound,
            slo_stretch=slo_stretch, shed=shed))
    return streams
