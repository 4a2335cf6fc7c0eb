"""Measurement records and the report for one streaming service run.

The streaming layer is latency-shaped where the serve layer is
throughput-shaped: the unit of measurement is one *request* (a batched
inference read), and the headline metrics are per-tenant p50/p99
request latency and the deadline-miss fraction, not epoch makespans.
Latency is measured from the request's *intended* arrival time, so
backpressure delay upstream of the queue counts against the SLO --
a blocked client is a slow client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from repro.backends.base import Environment
from repro.errors import ProfilingError
from repro.serve.service import percentile
from repro.stream.requests import StreamTenantSpec


@dataclass
class RequestRecord:
    """Lifecycle of one request through the stream simulation.

    ``arrival`` is the scheduled (intended) arrival; ``enqueued`` is
    when the request was actually admitted (later under backpressure);
    ``started``/``completed`` bracket service.  Exactly one of
    ``completed``/``shed`` is set for every request after a run.
    """

    index: int
    arrival: float
    batch: int
    chunk: int
    pinned: Optional[int] = None   # sharded-dispatch worker affinity
    worker: int = -1               # worker that actually served it
    enqueued: Optional[float] = None
    started: Optional[float] = None
    completed: Optional[float] = None
    shed: bool = False
    deadline: Optional[float] = None   # latency budget in seconds

    @property
    def terminal(self) -> bool:
        return self.shed or self.completed is not None

    @property
    def latency(self) -> Optional[float]:
        """Intended-arrival-to-completion seconds (None until done)."""
        if self.completed is None:
            return None
        return self.completed - self.arrival

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started is None:
            return None
        return self.started - self.arrival

    @property
    def service_seconds(self) -> Optional[float]:
        if self.completed is None or self.started is None:
            return None
        return self.completed - self.started

    @property
    def missed(self) -> bool:
        """Deadline violated: shed, or completed past the budget."""
        if self.shed:
            return True
        if self.deadline is None or self.latency is None:
            return False
        return self.latency > self.deadline


class StreamTally(NamedTuple):
    """What one pass over a tenant's finished records derives."""

    #: Completed records, in submission order.
    completed: list
    #: Their latencies, in the same order.
    latencies: list
    #: Records that missed their deadline (shed ones included).
    missed: int


@dataclass
class TenantStreamResult:
    """Everything measured about one tenant's request stream."""

    spec: StreamTenantSpec
    records: list = field(default_factory=list)
    #: Records in completion order (the out-of-order evidence).
    completions: list = field(default_factory=list)
    #: Uncontended analytic seconds to serve one batch; the SLO anchor.
    baseline_batch_seconds: Optional[float] = None
    max_queue_depth: int = 0
    bytes_from_storage: float = 0.0
    bytes_from_cache: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Requests shed by the SLO-aware gate under degraded capacity
    #: (a subset of ``shed_count``; queue-overflow sheds are the rest).
    slo_shed: int = 0

    @property
    def deadline_seconds(self) -> Optional[float]:
        """The per-request latency budget at the spec's batch size."""
        if (self.spec.slo_stretch is None
                or self.baseline_batch_seconds is None):
            return None
        return self.spec.slo_stretch * self.baseline_batch_seconds

    @cached_property
    def tally(self) -> StreamTally:
        """Completions, latencies and deadline misses in one pass.

        Derived on first access and kept: read it only once the run is
        over (the service builds its report then), because later edits
        to ``records`` do not show in it.  The arithmetic is that of
        :attr:`RequestRecord.latency` and :attr:`RequestRecord.missed`.
        """
        completed: list = []
        latencies: list = []
        missed = 0
        for record in self.records:
            latency = None
            if record.completed is not None:
                latency = record.completed - record.arrival
                completed.append(record)
                latencies.append(latency)
            if record.shed or (record.deadline is not None
                               and latency is not None
                               and latency > record.deadline):
                missed += 1
        return StreamTally(completed, latencies, missed)

    @property
    def completed(self) -> list:
        return self.tally.completed

    @property
    def shed_count(self) -> int:
        return sum(1 for record in self.records if record.shed)

    @property
    def latencies(self) -> list:
        return self.tally.latencies

    def latency_percentile(self, q: float) -> float:
        latencies = self.latencies
        return percentile(latencies, q) if latencies else 0.0

    @property
    def miss_fraction(self) -> float:
        """Fraction of requests that violated their deadline (shed
        requests count: they never met any SLO)."""
        if not self.records:
            return 0.0
        return self.tally.missed / len(self.records)

    @property
    def out_of_order(self) -> int:
        """Completions that overtook an earlier-submitted request."""
        overtaken = 0
        frontier = -1
        for record in self.completions:
            if record.index < frontier:
                overtaken += 1
            else:
                frontier = record.index
        return overtaken

    @property
    def makespan(self) -> float:
        done = [record.completed for record in self.completed]
        return max(done) if done else 0.0

    @property
    def throughput_rps(self) -> float:
        """Delivered requests/second over the tenant's active window."""
        window = self.makespan - self.spec.start
        return len(self.completed) / window if window > 0 else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_record(self) -> dict:
        """One per-tenant row of the stream report frame."""
        return {
            "tenant": self.spec.tenant,
            "pipeline": self.spec.pipeline,
            "strategy": self.spec.split,
            "arrival": self.spec.arrival,
            "rate_rps": self.spec.rate,
            "reqs": len(self.records),
            "batch": self.spec.batch,
            "p50_lat_s": self.latency_percentile(50),
            "p99_lat_s": self.latency_percentile(99),
            "miss_frac": self.miss_fraction,
            "shed": self.shed_count,
            "ooo": self.out_of_order,
            "max_q": self.max_queue_depth,
            "rps": self.throughput_rps,
            "cache_hit": self.cache_hit_ratio,
        }


@dataclass
class StreamReport:
    """Everything the streaming service measured about one run."""

    environment: Environment
    tenants: list = field(default_factory=list)
    #: Last request completion over the whole run.
    makespan: float = 0.0
    #: Kernel events resolved over the whole co-simulation -- the
    #: machine-independent deterministic cost metric the perf suite
    #: pins (never wall seconds).
    events_processed: int = 0
    bytes_from_storage: float = 0.0
    bytes_from_cache: float = 0.0
    metadata_peak_in_use: int = 0
    page_cache_evictions: int = 0
    #: Wall-clock seconds the host spent running the simulation
    #: (machine-dependent; track the trend, never assert it).
    wall_seconds: float = 0.0
    #: Chaos-engine injections over the run (:mod:`repro.faults`);
    #: empty/zero on every fault-free run.
    fault_events: list = field(default_factory=list)
    transfers_aborted: int = 0

    def provenance(self) -> dict:
        """Uniform run-cost stamp shared by every workload report."""
        return {"events_processed": self.events_processed,
                "wall_seconds": round(self.wall_seconds, 6)}

    @property
    def total_requests(self) -> int:
        return sum(len(tenant.records) for tenant in self.tenants)

    @property
    def total_completed(self) -> int:
        return sum(len(tenant.completed) for tenant in self.tenants)

    @property
    def total_shed(self) -> int:
        return sum(tenant.shed_count for tenant in self.tenants)

    @property
    def total_slo_shed(self) -> int:
        return sum(tenant.slo_shed for tenant in self.tenants)

    @property
    def miss_fraction(self) -> float:
        total = self.total_requests
        if not total:
            return 0.0
        missed = sum(tenant.tally.missed for tenant in self.tenants)
        return missed / total

    @property
    def p99_latency(self) -> float:
        latencies = [latency for tenant in self.tenants
                     for latency in tenant.latencies]
        return percentile(latencies, 99) if latencies else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        total = self.bytes_from_storage + self.bytes_from_cache
        return self.bytes_from_cache / total if total > 0 else 0.0

    def tenant(self, name: str) -> TenantStreamResult:
        for tenant in self.tenants:
            if tenant.spec.tenant == name:
                return tenant
        raise ProfilingError(f"no tenant stream {name!r} in this report")
