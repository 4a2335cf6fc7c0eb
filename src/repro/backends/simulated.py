"""The discrete-event execution backend.

Runs a strategy (a :class:`~repro.pipelines.base.SplitPlan` plus a
:class:`~repro.backends.base.RunConfig`) on the simulated cluster/VM and
returns measured metrics.  The model (see DESIGN.md):

* ``threads`` reader processes each work through their shard of samples,
  batched into jobs (``calibration.MAX_JOBS_PER_RUN`` caps event counts
  without diluting contention -- locks charge per *sample*).
* Per job: per-file opens (file-per-sample sources) -> network read
  through the page cache -> decompression -> record deserialization ->
  online step CPU (native work occupies cores, external work holds the
  GIL) -> the serialized dispatch hand-off.
* Offline phases read the source, run the offline steps, serialize,
  optionally compress, and write the materialised representation.
* The page cache persists across epochs unless ``cache_mode == "none"``
  (the paper drops caches between runs); application-level caching stores
  final tensors and fails when they exceed RAM, exactly like
  ``tf.data.Dataset.cache`` OOM-ing in the paper's last CV/NLP strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro import calibration as cal
from repro.backends.base import (CACHE_APPLICATION, CACHE_NONE, Environment,
                                 EpochResult, OfflineResult, RunConfig,
                                 StrategyRunResult)
from repro.errors import ProfilingError
from repro.formats.compression import get_codec
from repro.pipelines.base import Representation, SplitPlan
from repro.sim.cluster import StorageCluster
from repro.sim.cpu import Machine
from repro.sim.events import Event, Simulation, Timeout, all_of
from repro.sim.trace import ResourceTrace


@dataclass(frozen=True)
class _JobPlan:
    """One batched unit of thread work (immutable: plans are memoized
    and shared across epochs and tenants)."""

    thread_id: int
    job_index: int
    samples: int


#: Memo for partition_jobs: the same (samples, threads, max_jobs) shape
#: recurs for every epoch of every tenant; plans are never mutated.
_PARTITION_CACHE: dict[tuple[int, int, int], list[list["_JobPlan"]]] = {}


def partition_jobs(sample_count: int, threads: int,
                   max_jobs: int) -> list[list[_JobPlan]]:
    """Split ``sample_count`` samples into per-thread job lists.

    Samples are spread as evenly as possible across threads (the paper
    shards datasets so each thread owns a file), then each thread's share
    is cut into roughly ``max_jobs / threads`` jobs.  Results are cached
    (plans are frozen, so sharing them is safe).
    """
    if sample_count < 1:
        raise ProfilingError("cannot run an empty dataset")
    key = (sample_count, threads, max_jobs)
    cached = _PARTITION_CACHE.get(key)
    if cached is not None:
        return cached
    threads = min(threads, sample_count)
    per_thread = [sample_count // threads] * threads
    for index in range(sample_count % threads):
        per_thread[index] += 1
    jobs_per_thread = max(1, max_jobs // threads)
    plans: list[list[_JobPlan]] = []
    for thread_id, thread_samples in enumerate(per_thread):
        n_jobs = min(jobs_per_thread, thread_samples)
        base, extra = divmod(thread_samples, n_jobs)
        jobs = []
        for job_index in range(n_jobs):
            samples = base + (1 if job_index < extra else 0)
            jobs.append(_JobPlan(thread_id, job_index, samples))
        plans.append(jobs)
    if len(_PARTITION_CACHE) < 4096:
        _PARTITION_CACHE[key] = plans
    return plans


def build_cluster(environment: Environment, readers: int,
                  ) -> tuple[Simulation, Machine, StorageCluster]:
    """A fresh simulation with the machine and storage cluster of
    ``environment``.

    Ceph serves a fixed striping share per client stream once many
    readers are configured; the read link's per-stream rate is pinned to
    the fair share over ``readers`` so partially-idle readers do not
    transiently exceed it (matches the paper's measured per-strategy
    network read speeds).
    """
    sim = Simulation()
    machine = Machine(
        sim, cores=environment.cores,
        ram_bytes=environment.ram_bytes,
        page_cache_bytes=cal.PAGE_CACHE_FRACTION * environment.ram_bytes,
        memory_bw=environment.memory_bw,
        memory_stream_bw=environment.memory_stream_bw,
        dispatch_cost=cal.DISPATCH_COST,
        dispatch_convoy=cal.DISPATCH_CONVOY,
        gil_convoy=cal.GIL_CONVOY)
    storage = environment.storage
    cluster = StorageCluster(sim, storage)
    cluster.read_link.per_stream_bw = storage.stream_share(readers)
    return sim, machine, cluster


class BatchCounters:
    """Byte and page-cache tallies :func:`batch_body` adds to (named as
    on :class:`~repro.stream.report.TenantStreamResult`, which a stream
    passes instead)."""

    __slots__ = ("cache_hits", "cache_misses", "bytes_from_storage",
                 "bytes_from_cache")

    def __init__(self):
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_from_storage = 0.0
        self.bytes_from_cache = 0.0


def batch_body(sim: Simulation, machine: Machine, cluster: StorageCluster,
               stored: Representation, stored_bytes_ps: float,
               opens_per_sample: float, open_latency: float,
               online_steps, counters, trace: Optional[ResourceTrace] = None,
               decompress_bw: Optional[float] = None, shuffle: bool = False,
               populate_app_cache: bool = False,
               app_tensor_bytes_ps: float = 0.0, link_tag: str = "",
               detail=None):
    """The per-batch resource sequence, shared by training epochs and
    stream requests.

    Binds every per-run constant once and returns
    ``batches(items, lane="")``, a process generator that serves each
    ``(k, chunk_key, batch_span)`` of ``items`` in turn: ``k`` samples
    of ``stored`` through page-cache lookup on ``chunk_key``, metadata
    opens and storage-link read on a miss, runtime overhead,
    decompression, deserialization, online CPU/GIL charges, shuffle,
    app-cache populate and the dispatch hand-off.  Bytes and cache hits
    go to ``counters`` (a :class:`BatchCounters` or anything with its
    attributes).  ``trace`` collects the per-resource time brackets;
    ``detail`` (a detail tracer) records ``cache-read`` /
    ``storage-read`` leaves under each non-``None`` ``batch_span`` on
    ``lane`` and finishes the span.  Both only read the clock, so they
    never change the schedule.

    Every simulated batch of every strategy, tenant and request passes
    through here.  It yields timed holds directly and loops over
    ``items`` itself, so an epoch's reader thread runs it as its process
    with no per-batch generator or delegating ``yield from``.
    """
    stored_bytes_ps_raw = stored.bytes_per_sample
    open_factor = stored.open_latency_factor
    overhead_ps = cal.runtime_overhead(stored_bytes_ps_raw)
    deser_ps = (cal.DESER_FIXED + stored_bytes_ps_raw
                * stored.deser_penalty / cal.DESER_BW_PER_THREAD
                if stored.record_format else None)
    online_charges = [(step.holds_gil, step.cpu_seconds)
                      for step in online_steps if step.cpu_seconds > 0]
    shuffle_ps = cal.SHUFFLE_PER_SAMPLE
    dispatch_cost = machine.dispatch_cost
    page_cache = machine.page_cache
    memory_link = machine.memory_link
    metadata = cluster.metadata
    read_link = cluster.read_link
    cores = machine.cores
    dispatch = machine.dispatch
    gil = machine.gil

    def batches(items, lane: str = "") -> Generator[object, None, None]:
        for k, chunk_key, batch_span in items:
            opens = opens_per_sample * k
            disk_bytes = k * stored_bytes_ps
            if page_cache.lookup(chunk_key):
                counters.cache_hits += 1
                counters.bytes_from_cache += disk_bytes
                bracket = sim._now
                yield memory_link.transfer(disk_bytes)
                if trace is not None:
                    trace.memory_seconds += sim._now - bracket
                if batch_span is not None:
                    detail.add_complete(
                        "cache-read", "transfer", lane, bracket, sim._now,
                        parent=batch_span.id, args={"bytes": disk_bytes})
            else:
                counters.cache_misses += 1
                counters.bytes_from_storage += disk_bytes
                if opens > 0:
                    cluster.files_opened += opens
                    bracket = sim._now
                    yield metadata.held_for(opens * open_latency * open_factor)
                    if trace is not None:
                        trace.open_seconds += sim._now - bracket
                bracket = sim._now
                yield read_link.transfer(disk_bytes, link_tag)
                if trace is not None:
                    trace.read_seconds += sim._now - bracket
                if batch_span is not None:
                    detail.add_complete(
                        "storage-read", "transfer", lane, bracket, sim._now,
                        parent=batch_span.id, args={"bytes": disk_bytes})
                page_cache.insert(chunk_key, disk_bytes)
            yield Timeout(sim, k * overhead_ps)
            if decompress_bw is not None:
                bracket = sim._now
                yield cores.held_for(k * stored_bytes_ps_raw / decompress_bw)
                if trace is not None:
                    trace.decode_seconds += sim._now - bracket
            if deser_ps is not None:
                bracket = sim._now
                yield cores.held_for(k * deser_ps)
                if trace is not None:
                    trace.decode_seconds += sim._now - bracket
            for holds_gil, cpu_seconds in online_charges:
                bracket = sim._now
                if holds_gil:
                    yield gil.held_for(cpu_seconds, k)
                    if trace is not None:
                        trace.gil_seconds += sim._now - bracket
                else:
                    yield cores.held_for(k * cpu_seconds)
                    if trace is not None:
                        trace.cpu_seconds += sim._now - bracket
            if shuffle:
                bracket = sim._now
                yield cores.held_for(k * shuffle_ps)
                if trace is not None:
                    trace.shuffle_seconds += sim._now - bracket
            if populate_app_cache:
                bracket = sim._now
                yield memory_link.transfer(k * app_tensor_bytes_ps)
                if trace is not None:
                    trace.memory_seconds += sim._now - bracket
            bracket = sim._now
            yield dispatch.held_for(dispatch_cost, k)
            if trace is not None:
                trace.dispatch_seconds += sim._now - bracket
            if batch_span is not None:
                detail.finish(batch_span, sim._now)

    return batches


class SimulatedBackend:
    """Deterministic full-scale strategy execution on the DES.

    Every :class:`~repro.backends.base.EpochResult` carries a per-epoch
    :class:`~repro.sim.trace.ResourceTrace` (elapsed-time attribution
    for the diagnosis layer).  Tracing only reads the simulation clock,
    so it never changes the schedule.

    The offline phase and each training epoch are exposed as *process
    generators* (:meth:`offline_process`, :meth:`epoch_process`) so they
    can run either standalone -- :meth:`run` drives them through a fresh
    private simulation -- or as one of many concurrent jobs sharing a
    simulation, storage cluster, page cache and CPU pool (the
    ``repro.serve`` multi-tenant service).  All byte and cache-hit
    accounting is therefore kept local to the job instead of being read
    off global cluster counters, which other tenants would pollute.
    """

    def __init__(self, environment: Optional[Environment] = None,
                 tracer=None):
        self.environment = environment or Environment()
        #: Optional :class:`repro.obs.Tracer`.  Span emission only reads
        #: the simulation clock: traced and untraced runs schedule
        #: identical events.  Per-batch and per-transfer spans
        #: additionally require ``tracer.detail``.
        self.tracer = tracer

    # -- public entry point -----------------------------------------------

    def run(self, plan: SplitPlan, config: RunConfig) -> StrategyRunResult:
        if plan.is_unprocessed and config.compression:
            raise ProfilingError(
                "compression on the unprocessed strategy is not meaningful: "
                "random file access dominates (paper Sec. 4.3)")
        sim, machine, cluster = build_cluster(self.environment,
                                              config.threads)
        pipeline = plan.pipeline
        count = pipeline.sample_count
        stored = plan.materialized
        if plan.is_unprocessed:
            stored_bytes_ps = stored.bytes_per_sample
        else:
            stored_bytes_ps = stored.compressed_bytes_per_sample(
                config.compression)

        offline = None
        if not plan.is_unprocessed:
            offline = sim.run_process(
                self.offline_process(sim, machine, cluster, plan, config),
                name="offline")
            machine.drop_page_cache()

        # Application-cache admission check (paper Sec. 4.2 obs. 4).
        app_tensor_bytes_ps = self._app_cache_tensor_bytes(plan)
        app_cache_fits = (app_tensor_bytes_ps * count
                          <= self.environment.ram_bytes)
        app_cache_failed = (config.cache_mode == CACHE_APPLICATION
                            and not app_cache_fits)

        result = StrategyRunResult(
            pipeline=pipeline.name,
            strategy=plan.strategy_name,
            config=config,
            environment=self.environment,
            storage_bytes=stored_bytes_ps * count,
            offline=offline,
            app_cache_failed=app_cache_failed,
        )
        app_cache_ready = False
        for epoch in range(config.epochs):
            use_app_cache = (config.cache_mode == CACHE_APPLICATION
                             and app_cache_fits and app_cache_ready)
            epoch_result = sim.run_process(self.epoch_process(
                sim, machine, cluster, plan, config, epoch,
                stored_bytes_ps=stored_bytes_ps,
                from_app_cache=use_app_cache,
                populate_app_cache=(config.cache_mode == CACHE_APPLICATION
                                    and app_cache_fits
                                    and not app_cache_ready),
                app_tensor_bytes_ps=app_tensor_bytes_ps),
                name="epoch-barrier")
            result.epochs.append(epoch_result)
            if config.cache_mode == CACHE_NONE:
                machine.drop_page_cache()
            if config.cache_mode == CACHE_APPLICATION and app_cache_fits:
                app_cache_ready = True
        result.events_processed = sim.events_processed
        return result

    # -- offline phase ------------------------------------------------------

    def offline_process(self, sim: Simulation, machine: Machine,
                        cluster: StorageCluster, plan: SplitPlan,
                        config: RunConfig,
                        link_tag: str = "",
                        trace_track: str = "",
                        trace_parent: Optional[int] = None,
                        ) -> Generator[Event, None, OfflineResult]:
        """Materialise ``plan`` as a process generator.

        ``yield from`` this inside any simulation process (the service
        runs one per tenant); the return value is the
        :class:`~repro.backends.base.OfflineResult`.  ``link_tag``
        labels the cluster-link transfers for tie-break policies (the
        serve layer passes the tenant id).  ``trace_track`` /
        ``trace_parent`` place this phase's span on the caller's
        Perfetto track under the caller's span.
        """
        tracer = self.tracer
        offline_span = None
        if tracer is not None:
            offline_span = tracer.start(
                "offline", "offline", trace_track or "backend", sim.now,
                parent=trace_parent,
                args={"strategy": plan.strategy_name})
        pipeline = plan.pipeline
        source = pipeline.source
        count = pipeline.sample_count
        out_bytes_ps = plan.materialized.bytes_per_sample
        stored_bytes_ps = plan.materialized.compressed_bytes_per_sample(
            config.compression)
        codec = get_codec(config.compression)
        opens_per_sample = self._opens_per_sample(source, count)
        start = sim.now
        counters = {"read": 0.0, "write": 0.0, "compress": 0.0}
        # Hot-loop bindings; all arithmetic keeps the exact expression
        # shapes of the historical implementation so simulated timestamps
        # are reproduced bit-for-bit.
        source_bytes_ps = source.bytes_per_sample
        open_latency = self._open_latency()
        overhead_ps = cal.runtime_overhead(source_bytes_ps)
        serialize_ps = cal.DESER_FIXED + out_bytes_ps / cal.SER_BW_PER_THREAD
        compress_bw = codec.costs.compress_bw if codec is not None else None
        offline_charges = [(step.holds_gil, step.cpu_seconds)
                           for step in plan.offline_steps
                           if step.cpu_seconds > 0]
        metadata = cluster.metadata
        read_link = cluster.read_link
        write_link = cluster.write_link
        gil = machine.gil
        cores = machine.cores

        def worker(jobs: list[_JobPlan]) -> Generator[object, None, None]:
            for job in jobs:
                k = job.samples
                opens = opens_per_sample * k
                if opens > 0:
                    cluster.files_opened += opens
                    yield metadata.held_for(opens * open_latency)
                read_bytes = k * source_bytes_ps
                counters["read"] += read_bytes
                yield read_link.transfer(read_bytes, link_tag)
                yield Timeout(sim, k * overhead_ps)
                for holds_gil, cpu_seconds in offline_charges:
                    if holds_gil:
                        # Convoy per sample (see Lock.held_for).
                        yield gil.held_for(cpu_seconds, k)
                    else:
                        yield cores.held_for(k * cpu_seconds)
                # Serialize the materialised records.
                yield cores.held_for(k * serialize_ps)
                if compress_bw is not None:
                    compress_seconds = k * out_bytes_ps / compress_bw
                    counters["compress"] += compress_seconds
                    yield cores.held_for(compress_seconds)
                write_bytes = k * stored_bytes_ps
                counters["write"] += write_bytes
                yield write_link.transfer(write_bytes, link_tag)

        processes = [sim.process(worker(jobs), name=f"offline-{i}")
                     for i, jobs in enumerate(partition_jobs(
                         count, config.threads, config.max_jobs))]
        yield all_of(sim, processes)
        if offline_span is not None:
            tracer.finish(offline_span, sim.now)
        return OfflineResult(
            duration=sim.now - start,
            bytes_read=counters["read"],
            bytes_written=counters["write"],
            compression_seconds=counters["compress"],
        )

    # -- online epochs -------------------------------------------------------

    def epoch_process(self, sim: Simulation, machine: Machine,
                      cluster: StorageCluster, plan: SplitPlan,
                      config: RunConfig, epoch: int, stored_bytes_ps: float,
                      from_app_cache: bool = False,
                      populate_app_cache: bool = False,
                      app_tensor_bytes_ps: float = 0.0,
                      chunk_namespace=None,
                      link_tag: str = "",
                      trace_track: str = "",
                      trace_parent: Optional[int] = None,
                      ) -> Generator[Event, None, EpochResult]:
        """Run one training epoch as a process generator.

        ``chunk_namespace`` prefixes every page-cache chunk key; jobs
        sharing a namespace (tenants reading one deduplicated artifact)
        hit each other's cached chunks, while distinct namespaces keep
        tenants' private copies isolated.  ``None`` keeps the historical
        single-job keys.  ``link_tag`` labels this job's storage-link
        transfers, which orders simultaneous completions on the link
        (the serve layer passes the tenant id under its tenant
        tie-break).
        """
        pipeline = plan.pipeline
        count = pipeline.sample_count
        stored = plan.materialized
        codec = get_codec(config.compression)
        start = sim.now
        counters = BatchCounters()
        job_plans = partition_jobs(count, config.threads, config.max_jobs)
        trace = ResourceTrace(threads=len(job_plans))
        # Span tracing (repro.obs): the epoch span is cheap; per-batch
        # and per-transfer leaves sit behind the detail flag because a
        # default scenario runs up to MAX_JOBS_PER_RUN batches per epoch.
        tracer = self.tracer
        span_track = trace_track or "backend"
        epoch_span = None
        if tracer is not None:
            epoch_span = tracer.start(
                f"epoch {epoch}", "epoch", span_track, sim.now,
                parent=trace_parent,
                args={"epoch": epoch, "strategy": plan.strategy_name})
        detail = tracer if (tracer is not None and tracer.detail) else None
        epoch_span_id = epoch_span.id if epoch_span is not None else None
        shuffle_buffer = config.shuffle_buffer
        batches = batch_body(
            sim, machine, cluster, stored, stored_bytes_ps,
            self._opens_per_sample(stored, count), self._open_latency(),
            plan.online_steps, counters, trace=trace,
            decompress_bw=(codec.costs.decompress_bw if codec is not None
                           else None),
            shuffle=bool(shuffle_buffer),
            populate_app_cache=populate_app_cache,
            app_tensor_bytes_ps=app_tensor_bytes_ps, link_tag=link_tag,
            detail=detail)
        # Bindings of the app-cache path, the one per-batch path that
        # batch_body does not cover.
        nondet_charges = [(step.holds_gil, step.cpu_seconds)
                          for step in plan.online_steps
                          if not step.deterministic and step.cpu_seconds > 0]
        compression = config.compression
        stored_name = stored.name
        memory_link = machine.memory_link
        cores = machine.cores
        dispatch = machine.dispatch
        app_iter_cost = cal.APP_CACHE_ITER_COST
        gil = machine.gil

        def job_items(jobs: list[_JobPlan], lane: str):
            """One thread's batches as ``(samples, chunk key, detail
            span)``; each span opens as its batch starts."""
            for job in jobs:
                k = job.samples
                yield (k, (chunk_namespace, stored_name, compression,
                           job.thread_id, job.job_index),
                       None if detail is None else detail.start(
                           "batch", "batch", lane, sim._now,
                           parent=epoch_span_id, args={"samples": k}))

        def app_cache_batches(items) -> Generator[object, None, None]:
            """Served entirely from the tensor cache: memory read,
            non-deterministic steps, light iterator hand-off."""
            for k, _, batch_span in items:
                bracket = sim._now
                yield memory_link.transfer(k * app_tensor_bytes_ps)
                trace.memory_seconds += sim._now - bracket
                for holds_gil, cpu_seconds in nondet_charges:
                    bracket = sim._now
                    if holds_gil:
                        yield gil.held_for(cpu_seconds, k)
                        trace.gil_seconds += sim._now - bracket
                    else:
                        yield cores.held_for(k * cpu_seconds)
                        trace.cpu_seconds += sim._now - bracket
                bracket = sim._now
                yield dispatch.held_for(app_iter_cost, k)
                trace.dispatch_seconds += sim._now - bracket
                if batch_span is not None:
                    detail.finish(batch_span, sim._now)

        def after_shuffle_alloc(body) -> Generator[object, None, None]:
            yield Timeout(sim, cal.SHUFFLE_BUFFER_ALLOC)
            yield from body

        # Each reader thread's process runs its batch loop directly: a
        # wrapping generator would cost a frame resume on every yield.
        processes = []
        for thread_id, jobs in enumerate(job_plans):
            lane = (f"{span_track}/t{thread_id}" if detail is not None
                    else span_track)
            items = job_items(jobs, lane)
            body = (app_cache_batches(items) if from_app_cache
                    else batches(items, lane))
            if shuffle_buffer and thread_id == 0:
                body = after_shuffle_alloc(body)
            processes.append(sim.process(body, name=f"worker-{thread_id}"))
        yield all_of(sim, processes)
        if epoch_span is not None:
            tracer.finish(epoch_span, sim.now)
        lookups = counters.cache_hits + counters.cache_misses
        duration = sim.now - start
        trace.duration = duration
        trace.bytes_from_storage = counters.bytes_from_storage
        trace.bytes_from_cache = counters.bytes_from_cache
        trace.cache_hit_rate = (counters.cache_hits / lookups if lookups
                                else 0.0)
        return EpochResult(
            epoch=epoch,
            duration=duration,
            samples=count,
            bytes_from_storage=counters.bytes_from_storage,
            bytes_from_cache=counters.bytes_from_cache,
            cache_hit_rate=trace.cache_hit_rate,
            served_from_app_cache=from_app_cache,
            trace=trace,
        )

    # -- helpers ------------------------------------------------------------

    def _open_latency(self) -> float:
        return self.environment.storage.pipeline_open_latency

    @staticmethod
    def _opens_per_sample(rep: Representation, count: int) -> float:
        """File opens charged per sample for this representation.

        Materialised record shards (a handful of files) are free to open;
        file-per-sample sources pay one open each; container sources
        (NILM's 744 HDF5 files) pay a pro-rated fraction.
        """
        if rep.n_files is None:
            return 0.0
        opens = rep.n_files / count
        return opens if opens > 1e-3 else 0.0

    @staticmethod
    def _app_cache_tensor_bytes(plan: SplitPlan) -> float:
        """In-memory tensor size cached by application-level caching.

        ``tf.data.Dataset.cache`` sits after the last deterministic step,
        so the cached element is the furthest materialisable
        representation, held uncompressed in RAM.
        """
        pipeline = plan.pipeline
        return pipeline.representations[
            pipeline.max_offline_index()].bytes_per_sample

