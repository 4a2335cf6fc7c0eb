"""The cluster runtime under the serve, control and stream services.

:class:`ClusterRuntime` owns what those services share: the simulation
with its machine and storage cluster, the chaos engine (null unless a
fault plan is passed), the metrics sampler (null unless a registry is
passed) and the drain check.  The services own their workload
processes; their reports share the :class:`ClusterReport` fields the
runtime stamps.

Creation order fixes every kernel sequence number: a service creates
its workload processes first, then :meth:`ClusterRuntime.run` starts
the fault windows and then the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

from repro.backends.base import Environment
from repro.backends.simulated import build_cluster
from repro.errors import ProfilingError, SimulationError
from repro.sim.events import Event, Process


@dataclass(kw_only=True)
class ClusterReport:
    """What every run on a :class:`ClusterRuntime` reports.

    The serve and stream reports subclass it.  ``tenants`` holds one
    result per tenant, each with a ``spec.tenant`` name; the service
    sums the byte counts over them and :meth:`ClusterRuntime.stamp`
    writes the rest.
    """

    environment: Environment
    tenants: list = field(default_factory=list)
    #: Last tenant finish (serve) or request completion (stream).
    makespan: float = 0.0
    #: Cluster-wide byte accounting over the whole run.
    bytes_from_storage: float = 0.0
    bytes_from_cache: float = 0.0
    metadata_peak_in_use: int = 0
    page_cache_evictions: int = 0
    #: Kernel events resolved over the whole simulation.  The DES is
    #: deterministic, so this is a machine-independent cost metric
    #: (``make bench-check`` pins it; host time is simbench's).
    events_processed: int = 0
    #: Chaos-engine injections over the run (:mod:`repro.faults`):
    #: one :class:`~repro.faults.engine.FaultEvent` per opened window,
    #: and transfers failed by blackout windows.  Empty/zero on every
    #: fault-free run -- the doctors and renderers key off that.
    fault_events: list = field(default_factory=list)
    transfers_aborted: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        total = self.bytes_from_storage + self.bytes_from_cache
        return self.bytes_from_cache / total if total > 0 else 0.0

    def tenant(self, name: str):
        for tenant in self.tenants:
            if tenant.spec.tenant == name:
                return tenant
        raise ProfilingError(f"no tenant {name!r} in this report")


class ClusterRuntime:
    """One simulated cluster, the faults injected into it and its sampler.

    ``readers`` sets the link's fair per-stream read share (see
    :func:`~repro.backends.simulated.build_cluster`).  The sampler ticks
    every ``metrics.interval`` simulated seconds.
    """

    def __init__(self, environment: Environment, readers: int,
                 faults=None, metrics=None, tracer=None):
        self.environment = environment
        self.sim, self.machine, self.cluster = build_cluster(
            environment, readers)
        self.metrics = metrics
        self.fault_engine = None
        if faults:
            from repro.faults.engine import FaultEngine
            self.fault_engine = FaultEngine(
                faults, self.sim, self.machine, self.cluster,
                metrics=metrics, tracer=tracer)

    def run(self, processes: Sequence[Process], live: Callable[[], bool],
            sample: Callable[[object], None]) -> None:
        """Start the fault windows and the sampler, then drain the kernel.

        ``processes`` are the workload processes, already created; each
        must have finished when the kernel drains.  The sampler runs
        while ``live()`` holds and calls ``sample(registry)`` once per
        tick.  A failing workload process propagates out of here.
        """
        sim = self.sim
        if self.fault_engine is not None:
            self.fault_engine.start()
        if self.metrics is not None:
            sim.process(self._sampler(live, sample), name="metrics-sampler")
        sim.run()
        stuck = [process.name for process in processes
                 if not process.triggered]
        if stuck:
            raise SimulationError(
                f"simulation drained with unfinished work: {stuck}")

    def _sampler(self, live: Callable[[], bool],
                 sample: Callable[[object], None]
                 ) -> Generator[Event, None, None]:
        sim = self.sim
        registry = self.metrics
        interval = registry.interval
        while live():
            yield sim.timeout(interval)
            sample(registry)
            registry.snapshot(sim.now)

    def sample_cluster(self, registry) -> None:
        """Read one sample of the link, cache, metadata, kernel and fault
        gauges.  Pure reads: never schedules events or mutates state."""
        link = self.cluster.read_link
        registry.gauge("link.active_streams").set(link.active_streams)
        aggregate = self.environment.storage.aggregate_bw
        registry.gauge("link.utilization").set(
            link.current_throughput() / aggregate if aggregate else 0.0)
        cache = self.machine.page_cache
        registry.gauge("cache.hit_rate").set(cache.hit_rate)
        registry.gauge("cache.used_bytes").set(cache.used_bytes)
        registry.gauge("cache.evictions").set(cache.evictions)
        metadata = self.cluster.metadata
        registry.gauge("metadata.in_use").set(metadata.in_use)
        registry.gauge("metadata.queued").set(metadata.queued)
        registry.gauge("kernel.events_processed").set(
            self.sim.events_processed)
        engine = self.fault_engine
        if engine is not None:
            registry.gauge("faults.active").set(engine.active_count)
            # Blackouts make the bound unreachable; clamp for exporters.
            registry.gauge("faults.capacity_stretch").set(
                min(engine.capacity_stretch(), 1e6))

    def stamp(self, report: ClusterReport) -> None:
        """Write the run's metadata peak, page-cache evictions, kernel
        events and fault tallies into ``report``."""
        report.metadata_peak_in_use = self.cluster.metadata.peak_in_use
        report.page_cache_evictions = self.machine.page_cache.evictions
        report.events_processed = self.sim.events_processed
        engine = self.fault_engine
        if engine is not None:
            report.fault_events = list(engine.events)
            report.transfers_aborted = engine.transfers_aborted
