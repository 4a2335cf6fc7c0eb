"""The multi-tenant preprocessing service simulator.

:class:`PreprocessingService` runs J tenant jobs as first-class
discrete-event processes inside **one** shared simulation: one
:class:`~repro.sim.cluster.StorageCluster`, one
:class:`~repro.sim.cpu.Machine` (CPU pool, GIL, dispatch lock and the
shared OS page cache).  This replaces the closed-form fan-out formulas
of :mod:`repro.core.distributed` with an actual co-simulation: storage
link contention, metadata-service queueing, page-cache sharing and
eviction, and CPU-pool oversubscription all emerge from the event
model instead of being asserted.

Execution model per job:

1. sleep until the trace's arrival time;
2. queue for one of ``slots`` execution slots; the active
   :class:`~repro.serve.policies.SchedulerPolicy` picks who runs next;
3. materialise the offline artifact (skipped when an identical artifact
   is already being produced or was produced by another tenant and the
   policy allows sharing);
4. run ``epochs`` training epochs through the *same* epoch process
   generator the single-job :class:`~repro.backends.SimulatedBackend`
   uses, so the uncontended single-tenant limit of the service is
   exactly a backend run.

Per-tenant metrics (p50/p99 epoch time, stall fraction from the
existing :class:`~repro.sim.trace.ResourceTrace`, cache hit ratio,
SLO violations) aggregate into a :class:`ServiceReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nlargest
from typing import Generator, Optional, Sequence

from repro.backends.base import Environment, EpochResult, OfflineResult, \
    RunConfig
from repro.backends.simulated import SimulatedBackend
from repro.errors import ProfilingError
from repro.pipelines.base import SplitPlan
from repro.serve.jobs import JobSpec
from repro.serve.policies import SchedulerPolicy, get_policy
from repro.serve.runtime import ClusterReport, ClusterRuntime
from repro.sim.cluster import StorageCluster
from repro.sim.cpu import Machine
from repro.sim.events import Event, Simulation


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (deterministic, no NumPy).

    ``q`` in [0, 100].  Matches ``numpy.percentile``'s default
    behaviour for the small per-tenant epoch samples we feed it.

    ``values`` is read only through ``len``, iteration and
    ``reversed``.  A rank near the top selects only the two order
    statistics the interpolation reads, so a p99 over many samples
    keeps about 1% of them instead of a sorted copy of all.  Ties
    resolve as a stable sort would (``nlargest`` walks the values
    backwards for that), so the result is bit-identical to indexing
    ``sorted(values)``.
    """
    if not values:
        raise ProfilingError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ProfilingError(f"percentile out of range: {q}")
    count = len(values)
    if count == 1:
        return next(iter(values))
    rank = (count - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, count - 1)
    weight = rank - low
    if (count - low) * 16 > count:
        # At the median a heap selection measured 4x slower than a
        # sort, so every rank below the top sixteenth sorts.
        ordered = sorted(values)
        below, above = ordered[low], ordered[high]
    else:
        # largest[j] is sorted(values)[count - 1 - j].
        largest = nlargest(count - low, reversed(values))
        below, above = largest[count - 1 - low], largest[count - 1 - high]
    return below * (1.0 - weight) + above * weight


@dataclass
class TenantJob:
    """Runtime state of one tenant job inside the service simulation."""

    spec: JobSpec
    plan: SplitPlan
    config: RunConfig
    enqueue_index: int = -1
    grant_event: Optional[Event] = None
    arrival: float = 0.0
    granted: Optional[float] = None
    finished: Optional[float] = None
    offline: Optional[OfflineResult] = None
    offline_shared: bool = False
    epochs: list[EpochResult] = field(default_factory=list)
    #: Uncontended analytic epoch seconds; basis of the SLO.
    baseline_epoch_seconds: Optional[float] = None

    @property
    def artifact(self) -> tuple:
        return self.spec.artifact

    @property
    def queue_delay(self) -> float:
        """Seconds spent waiting for an execution slot."""
        if self.granted is None:
            return 0.0
        return self.granted - self.arrival

    @property
    def epoch_durations(self) -> list[float]:
        return [epoch.duration for epoch in self.epochs]

    @property
    def samples_processed(self) -> int:
        return sum(epoch.samples for epoch in self.epochs)

    @property
    def throughput(self) -> float:
        """Delivered samples/second over the job's online phase."""
        online = sum(self.epoch_durations)
        return self.samples_processed / online if online > 0 else 0.0

    @property
    def stall_fraction(self) -> float:
        """Thread-time fraction stalled, from the epoch resource traces."""
        total = stalled = 0.0
        for epoch in self.epochs:
            if epoch.trace is None:
                continue
            total += epoch.trace.total_thread_seconds
            stalled += epoch.trace.stall_seconds
        return stalled / total if total > 0 else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of online bytes served from the shared page cache."""
        storage = sum(epoch.bytes_from_storage for epoch in self.epochs)
        cache = sum(epoch.bytes_from_cache for epoch in self.epochs)
        total = storage + cache
        return cache / total if total > 0 else 0.0

    @property
    def slo_seconds(self) -> Optional[float]:
        """The per-epoch deadline: stretch x uncontended analytic time."""
        if (self.spec.slo_stretch is None
                or self.baseline_epoch_seconds is None):
            return None
        return self.spec.slo_stretch * self.baseline_epoch_seconds

    @property
    def slo_violations(self) -> int:
        slo = self.slo_seconds
        if slo is None:
            return 0
        return sum(1 for duration in self.epoch_durations
                   if duration > slo)

    def to_record(self) -> dict:
        """One per-tenant row of the service report frame."""
        durations = self.epoch_durations
        return {
            "tenant": self.spec.tenant,
            "pipeline": self.spec.pipeline,
            "strategy": self.spec.split,
            "prio": self.spec.priority,
            "arrival_s": self.arrival,
            "queue_s": self.queue_delay,
            "offline_s": (self.offline.duration if self.offline else 0.0),
            "shared": self.offline_shared,
            "p50_epoch_s": percentile(durations, 50) if durations else 0.0,
            "p99_epoch_s": percentile(durations, 99) if durations else 0.0,
            "sps": self.throughput,
            "stall_frac": self.stall_fraction,
            "cache_hit": self.cache_hit_ratio,
            "slo_viol": self.slo_violations,
        }


@dataclass(kw_only=True)
class ServiceReport(ClusterReport):
    """Everything the service measured about one trace under one policy.

    ``tenants`` are the :class:`TenantJob` runs.
    """

    policy: str
    slots: int
    #: Offline materialisations actually executed vs shared (deduped).
    offline_runs: int = 0
    offline_deduped: int = 0
    bytes_written: float = 0.0
    files_opened: int = 0

    @property
    def aggregate_sps(self) -> float:
        """Total delivered training samples over the service makespan."""
        samples = sum(job.samples_processed for job in self.tenants)
        return samples / self.makespan if self.makespan > 0 else 0.0

    @property
    def total_slo_violations(self) -> int:
        return sum(job.slo_violations for job in self.tenants)

    @property
    def mean_queue_delay(self) -> float:
        if not self.tenants:
            return 0.0
        return sum(job.queue_delay for job in self.tenants) \
            / len(self.tenants)

    @property
    def p99_epoch_seconds(self) -> float:
        durations = [duration for job in self.tenants
                     for duration in job.epoch_durations]
        return percentile(durations, 99) if durations else 0.0

    def epoch_traces(self):
        """Every measured epoch trace (the doctor's raw material)."""
        return [epoch.trace for job in self.tenants
                for epoch in job.epochs if epoch.trace is not None]


class ServiceState:
    """Read-only scheduler view over the live service simulation."""

    def __init__(self, service: "PreprocessingService"):
        self._service = service

    @property
    def now(self) -> float:
        return self._service._sim.now

    @property
    def running(self) -> Sequence[TenantJob]:
        return tuple(self._service._running)

    def tenant_busy_seconds(self, tenant: str) -> float:
        """Service seconds consumed by ``tenant`` (finished + running)."""
        busy = self._service._tenant_busy.get(tenant, 0.0)
        for job in self._service._running:
            if job.spec.tenant == tenant and job.granted is not None:
                busy += self.now - job.granted
        return busy

    def warm_artifacts(self) -> set:
        """Artifacts currently running or already materialised."""
        warm = {job.artifact for job in self._service._running}
        warm.update(self._service._materialized)
        return warm


class PreprocessingService:
    """Run a trace of tenant jobs on one shared simulated cluster."""

    def __init__(self, policy="fifo", slots: int = 2,
                 environment: Optional[Environment] = None,
                 materialize_offline: bool = True,
                 tie_break: str = "arrival",
                 metrics=None, tracer=None, faults=None):
        if isinstance(slots, bool) or not slots >= 1:
            raise ProfilingError(
                f"need at least one execution slot, got {slots!r}")
        if tie_break not in ("arrival", "tenant"):
            raise ProfilingError(
                f"tie_break must be 'arrival' or 'tenant', "
                f"got {tie_break!r}")
        self.policy: SchedulerPolicy = get_policy(policy)
        self.slots = slots
        self.environment = environment or Environment()
        self.backend = SimulatedBackend(self.environment, tracer=tracer)
        #: ``"tenant"`` tags every storage transfer with its tenant id, so
        #: the link completes mathematically simultaneous transfers in
        #: (tenant id, admission) order, pinning knife-edge thrash
        #: scenarios (serve64_hot_raw) to stable identities under future
        #: kernel changes.  ``"arrival"`` leaves transfers untagged: the
        #: historical admission-order behaviour.
        self.tie_break = tie_break
        #: ``False`` serves pre-materialised artifacts (fan-out studies):
        #: offline phases are skipped entirely.
        self.materialize_offline = materialize_offline
        #: Telemetry hooks (:mod:`repro.obs`).  Both are null by default;
        #: with them off the service schedules zero extra events and the
        #: goldens stay byte-identical (tests/obs/test_obs_differential.py).
        self.metrics = metrics
        self.tracer = tracer
        #: Seeded chaos timeline (:class:`repro.faults.FaultPlan`) or
        #: ``None``.  With no plan the engine is never constructed and
        #: the run schedules zero extra events -- the faults-off
        #: differential wall (tests/faults/test_faults_differential.py).
        self.fault_plan = faults
        # Per-run state, initialised in run().
        self._runtime: ClusterRuntime = None  # type: ignore[assignment]
        self._sim: Simulation = None  # type: ignore[assignment]
        self._machine: Machine = None  # type: ignore[assignment]
        self._cluster: StorageCluster = None  # type: ignore[assignment]
        self._queue: list[TenantJob] = []
        self._running: list[TenantJob] = []
        self._free_slots = 0
        self._tenant_busy: dict[str, float] = {}
        self._materialized: set = set()
        self._offline_events: dict[tuple, Event] = {}
        self._enqueued = 0

    # -- public entry point --------------------------------------------------

    def run(self, jobs: Sequence[JobSpec]) -> ServiceReport:
        """Simulate the full trace; returns the service report."""
        if not jobs:
            raise ProfilingError("cannot serve an empty trace")
        tenant_jobs = [
            TenantJob(spec=spec, plan=spec.resolve_plan(),
                      config=spec.run_config())
            for spec in jobs
        ]
        self._reset(tenant_jobs)
        sim = self._sim
        self._set_baselines(tenant_jobs)
        self._live = len(tenant_jobs)
        self._tenants = sorted({job.spec.tenant for job in tenant_jobs})
        processes = [sim.process(self._job_process(job),
                                 name=f"job-{job.spec.tenant}")
                     for job in tenant_jobs]
        self._runtime.run(processes, self._telemetry_live,
                          self._sample_metrics)
        return self._report(tenant_jobs)

    # -- simulation setup ----------------------------------------------------

    def _reset(self, jobs: Sequence[TenantJob]) -> None:
        """Fresh cluster runtime and scheduler state for one run.

        The link's per-stream share uses the widest single job's thread
        count, so a lone tenant sees exactly the single-job backend's
        rates; under co-tenancy the max-min allocation divides the
        aggregate further anyway.
        """
        runtime = ClusterRuntime(
            self.environment,
            readers=max(job.config.threads for job in jobs),
            faults=self.fault_plan, metrics=self.metrics,
            tracer=self.tracer)
        self._runtime = runtime
        self._sim = runtime.sim
        self._machine = runtime.machine
        self._cluster = runtime.cluster
        self._queue = []
        self._running = []
        self._free_slots = self.slots
        self._tenant_busy = {}
        self._materialized = set()
        self._offline_events = {}
        self._enqueued = 0
        self._live = 0
        self._tenants: list[str] = []

    # -- telemetry (null-by-default; see repro.obs) --------------------------

    def _telemetry_live(self) -> bool:
        """Whether the metrics sampler should keep running.  The control
        plane overrides this with its own active-job counter."""
        return self._live > 0

    def _sample_metrics(self, registry) -> None:
        """Read one sample of every service-level gauge.  Pure reads of
        existing state -- never schedules events or mutates the model."""
        registry.gauge("queue.depth").set(len(self._queue))
        registry.gauge("slots.running").set(len(self._running))
        registry.gauge("slots.free").set(self._free_slots)
        self._runtime.sample_cluster(registry)
        inflight: dict[str, int] = {}
        for job in self._running:
            inflight[job.spec.tenant] = inflight.get(job.spec.tenant, 0) + 1
        for tenant in self._tenants:
            registry.gauge(f"tenant.{tenant}.inflight").set(
                inflight.get(tenant, 0))

    def _set_baselines(self, jobs: Sequence[TenantJob]) -> None:
        """Uncontended analytic epoch time per job (the SLO anchor)."""
        from repro.backends.analytic import AnalyticModel
        model = AnalyticModel(self.environment)
        for job in jobs:
            estimate = model.estimate(job.plan, job.config)
            if estimate.throughput > 0:
                job.baseline_epoch_seconds = (
                    job.plan.pipeline.sample_count / estimate.throughput)

    # -- the per-job process -------------------------------------------------

    def _job_process(self, job: TenantJob
                     ) -> Generator[Event, None, None]:
        sim = self._sim
        tracer = self.tracer
        if job.spec.arrival > 0:
            yield sim.timeout(job.spec.arrival)
        job.arrival = sim.now
        self._enqueue(job)
        queue_span = None
        if tracer is not None:
            queue_span = tracer.start("queue", "queue", job.spec.tenant,
                                      sim.now)
        yield job.grant_event
        job.granted = sim.now
        if queue_span is not None:
            tracer.finish(queue_span, sim.now)
        if self.metrics is not None:
            self.metrics.histogram("queue.delay_s").observe(job.queue_delay)
        try:
            yield from self._execute(job)
        finally:
            job.finished = sim.now
            self._live -= 1
            self._release(job)

    def _enqueue(self, job: TenantJob) -> None:
        """Queue ``job`` for an execution slot and poke the scheduler."""
        job.grant_event = self._sim.event()
        job.enqueue_index = self._enqueued
        self._enqueued += 1
        self._queue.append(job)
        self._dispatch()

    def _execute(self, job: TenantJob, start_epoch: int = 0
                 ) -> Generator[Event, None, None]:
        """The slot-holding phase: offline materialisation + epochs.

        ``start_epoch`` lets the control plane resume a preempted job at
        the epoch boundary it was interrupted at; the offline phase only
        runs when starting from the beginning.
        """
        sim = self._sim
        tracer = self.tracer
        job_span = None
        if tracer is not None:
            job_span = tracer.start(
                f"run {job.spec.tenant}", "job", job.spec.tenant, sim.now,
                args={"pipeline": job.spec.pipeline,
                      "strategy": job.spec.split,
                      "start_epoch": start_epoch})
        parent = job_span.id if job_span is not None else None
        try:
            if (start_epoch == 0 and self.materialize_offline
                    and not job.plan.is_unprocessed):
                yield from self._offline_phase(job, trace_parent=parent)
            stored = job.plan.materialized
            if job.plan.is_unprocessed:
                stored_bytes_ps = stored.bytes_per_sample
            else:
                stored_bytes_ps = stored.compressed_bytes_per_sample(
                    job.config.compression)
            # The page-cache namespace is shared exactly when the
            # offline artifact is deduplicated.
            namespace = self._dedup_key(job)
            for epoch in range(start_epoch, job.config.epochs):
                self._before_epoch(job, epoch)
                result = yield from self.backend.epoch_process(
                    sim, self._machine, self._cluster, job.plan,
                    job.config, epoch, stored_bytes_ps=stored_bytes_ps,
                    chunk_namespace=namespace,
                    link_tag=self._link_tag(job),
                    trace_track=job.spec.tenant, trace_parent=parent)
                job.epochs.append(result)
        finally:
            if job_span is not None:
                tracer.finish(job_span, sim.now)

    def _before_epoch(self, job: TenantJob, epoch: int) -> None:
        """Epoch-boundary hook for the control plane (crash injection,
        preemption, cancellation).  Must not yield or schedule events:
        the plain service's behaviour -- and therefore every golden --
        is bit-identical with the hook in place."""

    def _offline_phase(self, job: TenantJob,
                       trace_parent: Optional[int] = None
                       ) -> Generator[Event, None, None]:
        """Materialise the artifact, deduplicating across tenants when
        the policy allows artifact sharing."""
        if job.offline is not None:
            # Already materialised by this very job on an earlier
            # control-plane attempt; nothing to redo.
            return
        key = self._dedup_key(job)
        owner = self._offline_events.get(key)
        if owner is not None:
            # Another tenant is producing (or has produced) this exact
            # artifact: wait for it instead of duplicating the work.
            job.offline_shared = True
            yield owner
            return
        event = self._sim.event()
        self._offline_events[key] = event
        try:
            result = yield from self.backend.offline_process(
                self._sim, self._machine, self._cluster, job.plan,
                job.config, link_tag=self._link_tag(job),
                trace_track=job.spec.tenant, trace_parent=trace_parent)
        except Exception as error:
            # Producer died (e.g. a storage blackout failed its
            # transfer): un-claim the key so a later attempt
            # re-materialises from scratch, and propagate the failure to
            # any tenants already waiting on the shared artifact so
            # their control-plane retries fire too.
            if self._offline_events.get(key) is event:
                del self._offline_events[key]
            if event.callbacks is not None:
                event.fail(error)
            raise
        job.offline = result
        self._materialized.add(job.artifact)
        event.succeed(result)

    def _dedup_key(self, job: TenantJob) -> tuple:
        """Offline-dedup identity: content key under sharing policies,
        tenant-private otherwise."""
        if self.policy.share_artifacts:
            return job.artifact
        return (job.spec.tenant,) + job.artifact

    def _link_tag(self, job: TenantJob) -> str:
        """Storage-link transfer label: the tenant id under the tenant
        tie-break, untagged (admission order) otherwise."""
        return job.spec.tenant if self.tie_break == "tenant" else ""

    # -- scheduling ----------------------------------------------------------

    def _dispatch(self) -> None:
        state = ServiceState(self)
        while self._free_slots > 0 and self._queue:
            picked = self.policy.select(tuple(self._queue), state)
            self._queue.remove(picked)
            self._free_slots -= 1
            self._running.append(picked)
            picked.grant_event.succeed()

    def _release(self, job: TenantJob) -> None:
        self._running.remove(job)
        self._free_slots += 1
        if job.granted is not None:
            self._tenant_busy[job.spec.tenant] = (
                self._tenant_busy.get(job.spec.tenant, 0.0)
                + (job.finished - job.granted))
        self._dispatch()

    # -- reporting -----------------------------------------------------------

    def _report(self, jobs: list[TenantJob]) -> ServiceReport:
        """The service report over ``jobs``, whose window ends at the
        last job's finish."""
        report = ServiceReport(
            policy=self.policy.name, slots=self.slots,
            environment=self.environment, tenants=jobs,
            makespan=max(job.finished for job in jobs),
            offline_runs=sum(1 for job in jobs
                             if job.offline is not None),
            offline_deduped=sum(1 for job in jobs if job.offline_shared),
            bytes_from_storage=sum(
                epoch.bytes_from_storage
                for job in jobs for epoch in job.epochs),
            bytes_from_cache=sum(
                epoch.bytes_from_cache
                for job in jobs for epoch in job.epochs),
            bytes_written=self._cluster.bytes_written,
            files_opened=round(self._cluster.files_opened),
        )
        self._runtime.stamp(report)
        return report
