"""The streaming inference service simulator.

:class:`StreamingService` co-simulates per-tenant request/response
streams on a :class:`~repro.serve.runtime.ClusterRuntime`: one shared
:class:`~repro.sim.cluster.StorageCluster` and one
:class:`~repro.sim.cpu.Machine` (CPU pool, GIL, dispatch lock, page
cache).  Each tenant runs an *arrival process* (replaying its seeded
schedule) feeding ``workers`` concurrent request processors through a
queue with optional depth bounds (block or shed on overflow).

Each request is served by the very per-batch body a training epoch
runs, :func:`~repro.backends.simulated.batch_body` -- opens,
page-cache-aware network read, deserialization, online CPU/GIL work,
dispatch hand-off -- so the resource model exists once.  The
differential wall replays a training epoch's job partition
(:func:`~repro.stream.requests.epoch_request_plans`) through this
engine and requires the epoch timings back to ~1e-12, which pins what
is the stream's own: its queueing and pinned dispatch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import isnan
from typing import Callable, Generator, Optional, Sequence

from repro.backends.base import CACHE_SYSTEM, Environment, RunConfig
from repro.backends.simulated import SimulatedBackend, batch_body
from repro.errors import ProfilingError
from repro.faults.gate import slo_shed_decision
from repro.pipelines.base import SplitPlan
from repro.serve.runtime import ClusterRuntime
from repro.sim.events import Event, Simulation
from repro.stream.report import (RequestLog, StreamReport,
                                 TenantStreamResult)
from repro.stream.requests import (StreamTenantSpec, arrival_schedule,
                                   request_chunks)


class _Shard:
    """One dispatch queue of request-log positions: shared by all of a
    tenant's workers, or (for pinned differential streams) private to a
    single worker."""

    __slots__ = ("queue", "idle", "space")

    def __init__(self):
        self.queue: deque = deque()
        #: Events of workers parked on an empty queue (FIFO hand-off).
        self.idle: list = []
        #: Events of the arrival process blocked on a full queue.
        self.space: list = []


@dataclass
class _TenantStream:
    """Runtime state of one tenant stream.

    ``batches`` is the tenant's
    :func:`~repro.backends.simulated.batch_body`, bound once the cluster
    exists; a request's page-cache chunk key is
    ``(namespace, stored_name, None, chunk)``.
    """

    spec: StreamTenantSpec
    plan: SplitPlan
    result: TenantStreamResult
    log: RequestLog
    shards: list = field(default_factory=list)
    pinned: bool = False
    closed: bool = False
    depth: int = 0          # requests waiting in queues (not in service)
    namespace: tuple = ()
    stored_name: str = ""
    batches: Optional[Callable] = None

    def shard_for(self, row: int) -> _Shard:
        return self.shards[self.log.pinned[row] if self.pinned else 0]


class StreamingService:
    """Run tenant request streams on one shared simulated cluster."""

    def __init__(self, environment: Optional[Environment] = None,
                 metrics=None, tracer=None, faults=None):
        self.environment = environment or Environment()
        #: Telemetry hooks (:mod:`repro.obs`); null by default, and with
        #: them off the stream schedules zero extra kernel events.
        self.metrics = metrics
        self.tracer = tracer
        #: Seeded chaos timeline (:class:`repro.faults.FaultPlan`) or
        #: ``None``; with no plan the run schedules zero extra events.
        self.fault_plan = faults
        # Per-run state, initialised in run().
        self._runtime: ClusterRuntime = None  # type: ignore[assignment]
        self._sim: Simulation = None  # type: ignore[assignment]
        self._contexts: list = []
        self._live_workers = 0

    # -- public entry point --------------------------------------------------

    def run(self, streams: Sequence[StreamTenantSpec], seed: int = 0,
            plans: Optional[dict] = None) -> StreamReport:
        """Simulate every tenant stream; returns the stream report.

        ``plans`` optionally overrides the seeded request expansion with
        explicit per-tenant :class:`~repro.stream.requests.RequestPlan`
        tuples (the differential wall passes an epoch's job partition).
        Plans with ``worker`` set pin requests to that worker's private
        queue -- sharded dispatch, which is incompatible with admission
        control (``queue_bound``/``shed``).
        """
        if not streams:
            raise ProfilingError("cannot stream an empty tenant set")
        names = [spec.tenant for spec in streams]
        if len(set(names)) != len(names):
            raise ProfilingError(f"duplicate tenant streams in {names}")
        contexts = [self._context(spec, seed, plans) for spec in streams]
        # The widest tenant's worker count sets the link's per-stream
        # share (the reader analogue of the widest job's thread count).
        runtime = ClusterRuntime(
            self.environment,
            readers=max(spec.workers for spec in streams),
            faults=self.fault_plan, metrics=self.metrics,
            tracer=self.tracer)
        self._runtime = runtime
        sim = self._sim = runtime.sim
        open_latency = self.environment.storage.pipeline_open_latency
        for ctx in contexts:
            # Streams serve the pre-materialised, uncompressed artifact
            # with the page cache live: the materialize_offline=False,
            # cache_mode="system" corner of the epoch model.
            stored = ctx.plan.materialized
            ctx.batches = batch_body(
                sim, runtime.machine, runtime.cluster, stored,
                stored.bytes_per_sample,
                SimulatedBackend._opens_per_sample(
                    stored, ctx.plan.pipeline.sample_count),
                open_latency, ctx.plan.online_steps, ctx.result)
        self._set_baselines(contexts)
        self._contexts = contexts
        self._live_workers = sum(spec.workers for spec in streams)
        processes = []
        for ctx in contexts:
            # The arrival process is created *before* the tenant's
            # workers: at t=0 a zero-jitter schedule then fully populates
            # the worker queues before any worker bootstraps, so workers
            # drain their shards in exactly the epoch worker order.
            processes.append(sim.process(
                self._arrival_process(ctx),
                name=f"arrivals-{ctx.spec.tenant}"))
            for wid in range(ctx.spec.workers):
                processes.append(sim.process(
                    self._worker_process(ctx, wid),
                    name=f"stream-{ctx.spec.tenant}-{wid}"))
        runtime.run(processes, lambda: self._live_workers > 0,
                    self._sample_metrics)
        return self._report(contexts)

    # -- telemetry (null-by-default; see repro.obs) --------------------------

    def _sample_metrics(self, registry) -> None:
        """One sample of the stream-level gauges; pure reads only."""
        self._runtime.sample_cluster(registry)
        for ctx in self._contexts:
            tenant = ctx.spec.tenant
            registry.gauge(f"tenant.{tenant}.queue_depth").set(ctx.depth)
            registry.gauge(f"tenant.{tenant}.completed").set(
                len(ctx.log.order))

    # -- simulation setup ----------------------------------------------------

    def _context(self, spec: StreamTenantSpec, seed: int,
                 plans: Optional[dict]) -> _TenantStream:
        plan = spec.resolve_plan()
        pinned = False
        if plans is not None and spec.tenant in plans:
            log = self._planned_log(spec, plans[spec.tenant])
            pinned = log.pinned is not None
        else:
            # Stride over the artifact in batch-sized chunks: a request
            # re-reading a chunk within cache lifetime hits the shared
            # page cache, like epoch >= 1 of a training run.
            chunk_count = max(1, plan.pipeline.sample_count // spec.batch)
            arrivals = arrival_schedule(spec, seed)
            log = RequestLog.from_schedule(
                arrivals, spec.batch,
                request_chunks(len(arrivals), chunk_count))
        return _TenantStream(
            spec=spec, plan=plan,
            result=TenantStreamResult(spec=spec, log=log), log=log,
            shards=[_Shard() for _ in range(spec.workers if pinned else 1)],
            pinned=pinned, namespace=("stream", spec.tenant),
            stored_name=plan.materialized.name)

    @staticmethod
    def _planned_log(spec: StreamTenantSpec, planned) -> RequestLog:
        """Check an explicit plan override and load it into a log."""
        if not planned:
            raise ProfilingError(
                f"stream {spec.tenant!r}: empty request plan")
        pinned_flags = {request.worker is not None for request in planned}
        if len(pinned_flags) != 1:
            raise ProfilingError(
                f"stream {spec.tenant!r}: cannot mix pinned and "
                f"unpinned requests")
        if pinned_flags.pop():
            if spec.queue_bound or spec.shed:
                raise ProfilingError(
                    f"stream {spec.tenant!r}: pinned (sharded) requests "
                    f"bypass admission control; queue_bound/shed must "
                    f"be off")
            bad = [request.worker for request in planned
                   if not 0 <= request.worker < spec.workers]
            if bad:
                raise ProfilingError(
                    f"stream {spec.tenant!r}: pinned worker ids {bad} "
                    f"outside 0..{spec.workers - 1}")
        return RequestLog.from_plans(planned)

    def _set_baselines(self, contexts: Sequence[_TenantStream]) -> None:
        """Uncontended analytic service time per batch (the SLO anchor),
        and from it every request's latency deadline."""
        from repro.backends.analytic import AnalyticModel
        model = AnalyticModel(self.environment)
        for ctx in contexts:
            estimate = model.estimate(
                ctx.plan, RunConfig(threads=1, epochs=1,
                                    cache_mode=CACHE_SYSTEM))
            if estimate.throughput <= 0:
                continue
            seconds_per_sample = 1.0 / estimate.throughput
            ctx.result.baseline_batch_seconds = (
                ctx.spec.batch * seconds_per_sample)
            if ctx.spec.slo_stretch is None:
                continue
            deadlines = ctx.log.deadline
            for row, batch in enumerate(ctx.log.batch):
                deadlines[row] = (ctx.spec.slo_stretch
                                  * batch * seconds_per_sample)

    # -- the per-tenant processes --------------------------------------------

    def _arrival_process(self, ctx: _TenantStream
                         ) -> Generator[Event, None, None]:
        """Replay the arrival schedule: admit, hand off, block or shed."""
        sim = self._sim
        bound = ctx.spec.queue_bound
        engine = self._runtime.fault_engine
        log = ctx.log
        arrivals = log.arrival
        deadlines = log.deadline
        enqueued = log.enqueued
        shed = log.shed
        for row in range(len(log)):
            delay = arrivals[row] - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            deadline = deadlines[row]
            if (engine is not None and ctx.spec.shed
                    and not isnan(deadline)):
                # The SLO-aware gate shared with control-plane admission
                # (repro.faults.gate): under degraded capacity a request
                # whose service-time bound already breaks its deadline
                # is shed at arrival, not after burning a worker.
                reason = slo_shed_decision(
                    deadline / ctx.spec.slo_stretch,
                    deadline, engine.capacity_stretch())
                if reason is not None:
                    shed[row] = 1
                    ctx.result.slo_shed += 1
                    continue
            shard = ctx.shard_for(row)
            if shard.idle:
                # An idle worker: hand the request over directly, never
                # touching queue depth.
                enqueued[row] = sim.now
                shard.idle.pop(0).succeed(row)
                continue
            if bound and ctx.depth >= bound:
                if ctx.spec.shed:
                    shed[row] = 1
                    continue
                # Backpressure: block the arrival source until a worker
                # frees a queue slot.
                while ctx.depth >= bound:
                    space = sim.event()
                    shard.space.append(space)
                    yield space
                if shard.idle:
                    enqueued[row] = sim.now
                    shard.idle.pop(0).succeed(row)
                    continue
            enqueued[row] = sim.now
            shard.queue.append(row)
            ctx.depth += 1
            if ctx.depth > ctx.result.max_queue_depth:
                ctx.result.max_queue_depth = ctx.depth
        ctx.closed = True
        for shard in ctx.shards:
            for event in shard.idle:
                event.succeed(None)   # drain sentinel
            shard.idle.clear()

    def _worker_process(self, ctx: _TenantStream, wid: int
                        ) -> Generator[Event, None, None]:
        """Pull requests until the stream closes and the queue drains."""
        sim = self._sim
        tracer = self.tracer
        lane = f"{ctx.spec.tenant}/w{wid}"
        shard = ctx.shards[wid] if ctx.pinned else ctx.shards[0]
        log = ctx.log
        workers = log.worker
        started = log.started
        completed = log.completed
        order = log.order
        batches = ctx.batches
        namespace = ctx.namespace
        stored_name = ctx.stored_name
        while True:
            if shard.queue:
                row = shard.queue.popleft()
                ctx.depth -= 1
                if shard.space:
                    shard.space.pop(0).succeed()
            elif ctx.closed:
                break
            else:
                idle = sim.event()
                shard.idle.append(idle)
                row = yield idle
                if row is None:
                    break
            workers[row] = wid
            started[row] = sim.now
            # The request span brackets the shared batch body; the tracer
            # only reads the clock.
            span = None
            if tracer is not None:
                span = tracer.start(
                    f"request {log.index[row]}", "request", lane, sim.now,
                    args={"batch": log.batch[row],
                          "chunk": log.chunk[row]})
            item = (log.batch[row],
                    (namespace, stored_name, None, log.chunk[row]), None)
            yield from batches((item,))
            completed[row] = sim.now
            if span is not None:
                tracer.finish(span, sim.now)
            order.append(row)
        self._live_workers -= 1

    # -- reporting -----------------------------------------------------------

    def _report(self, contexts: list) -> StreamReport:
        tenants = [ctx.result for ctx in contexts]
        makespans = [tenant.makespan for tenant in tenants
                     if tenant.tally.completed]
        report = StreamReport(
            environment=self.environment,
            tenants=tenants,
            makespan=max(makespans) if makespans else 0.0,
            bytes_from_storage=sum(tenant.bytes_from_storage
                                   for tenant in tenants),
            bytes_from_cache=sum(tenant.bytes_from_cache
                                 for tenant in tenants),
        )
        self._runtime.stamp(report)
        return report
