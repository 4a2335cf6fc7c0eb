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

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isnan, nan
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.serve.runtime import ClusterReport
from repro.serve.service import percentile
from repro.stream.requests import StreamTenantSpec


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Lifecycle of one request through the stream simulation.

    A read-only view of one row of a :class:`RequestLog`, built on
    demand.  ``arrival`` is the scheduled (intended) arrival;
    ``enqueued`` is when the request was actually admitted (later under
    backpressure); ``started``/``completed`` bracket service.  Exactly
    one of ``completed``/``shed`` is set for every request after a run.
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
    def missed(self) -> bool:
        """Deadline violated: shed, or completed past the budget."""
        if self.shed:
            return True
        if self.deadline is None or self.latency is None:
            return False
        return self.latency > self.deadline


def _seconds(values: Iterable[Optional[float]]) -> array:
    """A float column with NaN standing for "not set"."""
    return array("d", (nan if value is None else value
                       for value in values))


def _or_none(value: float) -> Optional[float]:
    return None if isnan(value) else value


class _Joined:
    """Float columns read end to end as one, without copying them.

    Gives :func:`~repro.serve.service.percentile` what it reads: the
    length, and the values forwards and backwards.  Over a whole run a
    joined copy would cost 8 bytes a request at every render.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[array]):
        self.columns = columns

    def __len__(self) -> int:
        return sum(map(len, self.columns))

    def __iter__(self):
        return chain.from_iterable(self.columns)

    def __reversed__(self):
        return chain.from_iterable(map(reversed, reversed(self.columns)))


class RequestLog:
    """One tenant's requests as typed columns, one row per request.

    Rows are positions in admission order: the arrival process walks
    them in order, and queues, hand-offs and the request body pass the
    int position around.  Timestamps are ``array('d')`` columns holding
    NaN until set (each double is stored exactly, so every timestamp
    expression reads back the value it wrote); ``worker``, ``chunk`` and
    ``order`` are ``array('i')``; ``pinned``/``worker`` are -1 when
    unset and ``shed`` is a ``bytearray`` of 0/1 flags.  ``order`` lists
    the positions in completion order.  A seeded stream's ``index`` is
    ``range(rows)``, and a log with no pinned request has no ``pinned``
    column (``None``).
    """

    __slots__ = ("index", "arrival", "batch", "chunk", "pinned",
                 "deadline", "worker", "enqueued", "started",
                 "completed", "shed", "order")

    def __init__(self, index: Sequence[int], arrival: array, batch: array,
                 chunk: array, pinned: Optional[array] = None):
        rows = len(arrival)
        unset = array("d", [nan]) * rows
        self.index = index
        self.arrival = arrival
        self.batch = batch
        self.chunk = chunk
        self.pinned = pinned
        self.deadline = array("d", unset)
        self.worker = array("i", [-1]) * rows
        self.enqueued = array("d", unset)
        self.started = array("d", unset)
        self.completed = array("d", unset)
        self.shed = bytearray(rows)
        self.order = array("i")

    @classmethod
    def from_schedule(cls, arrivals: Sequence[float], batch: int,
                      chunks: Iterable[int]) -> "RequestLog":
        """A seeded stream: request ``i`` arrives at ``arrivals[i]``
        (sorted) and reads ``batch`` samples of its chunk."""
        rows = len(arrivals)
        return cls(range(rows), array("d", arrivals),
                   array("q", [batch]) * rows, array("i", chunks))

    @classmethod
    def _from_rows(cls, rows: Sequence, pinned: Iterable[Optional[int]]
                   ) -> "RequestLog":
        """A log of ``rows`` (plans or records) in the order given; it
        has a ``pinned`` column only if some row is pinned."""
        workers = [-1 if worker is None else worker for worker in pinned]
        return cls(array("q", (row.index for row in rows)),
                   array("d", (row.arrival for row in rows)),
                   array("q", (row.batch for row in rows)),
                   array("i", (row.chunk for row in rows)),
                   array("i", workers) if max(workers, default=-1) >= 0
                   else None)

    @classmethod
    def from_plans(cls, plans: Iterable) -> "RequestLog":
        """Explicit :class:`~repro.stream.requests.RequestPlan` tuples,
        in (arrival, index) order; ``worker`` becomes ``pinned``."""
        ordered = sorted(plans, key=lambda plan: (plan.arrival, plan.index))
        return cls._from_rows(ordered, (plan.worker for plan in ordered))

    @classmethod
    def from_records(cls, records: Sequence[RequestRecord],
                     completions: Iterable[RequestRecord] = ()
                     ) -> "RequestLog":
        """A log holding ``records`` row for row; ``completions`` lists
        the completed ones in completion order (matched by index)."""
        log = cls._from_rows(records,
                             (record.pinned for record in records))
        log.deadline = _seconds(record.deadline for record in records)
        log.worker = array("i", (record.worker for record in records))
        log.enqueued = _seconds(record.enqueued for record in records)
        log.started = _seconds(record.started for record in records)
        log.completed = _seconds(record.completed for record in records)
        log.shed = bytearray(record.shed for record in records)
        position = {record.index: row for row, record in enumerate(records)}
        log.order = array("i", (position[record.index]
                                for record in completions))
        return log

    def __len__(self) -> int:
        return len(self.arrival)

    def record(self, row: int) -> RequestRecord:
        """A read-only view of the request at ``row``."""
        pinned = -1 if self.pinned is None else self.pinned[row]
        return RequestRecord(
            index=self.index[row], arrival=self.arrival[row],
            batch=self.batch[row], chunk=self.chunk[row],
            pinned=None if pinned < 0 else pinned,
            worker=self.worker[row],
            enqueued=_or_none(self.enqueued[row]),
            started=_or_none(self.started[row]),
            completed=_or_none(self.completed[row]),
            shed=bool(self.shed[row]),
            deadline=_or_none(self.deadline[row]))


class StreamTally(NamedTuple):
    """What one pass over a tenant's finished requests derives."""

    #: Log positions of the completed requests, in submission order.
    completed: array
    #: Their latencies, in the same order.
    latencies: array
    #: Requests that missed their deadline (shed ones included).
    missed: int


@dataclass
class TenantStreamResult:
    """Everything measured about one tenant's request stream."""

    spec: StreamTenantSpec
    log: RequestLog
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
    def records(self) -> list:
        """Every request as a :class:`RequestRecord` view, in
        submission order (built on each access)."""
        return [self.log.record(row) for row in range(len(self.log))]

    @property
    def completions(self) -> list:
        """Completed requests as views, in completion order (the
        out-of-order evidence)."""
        return [self.log.record(row) for row in self.log.order]

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
        over (the service builds its report then), because the engine
        writes the log's columns while it runs and later writes do not
        show in it.  The arithmetic is that of
        :attr:`RequestRecord.latency` and :attr:`RequestRecord.missed`.
        """
        log = self.log
        completed = array("i")
        latencies = array("d")
        missed = 0
        for row, (arrival, done, deadline, shed) in enumerate(zip(
                log.arrival, log.completed, log.deadline, log.shed)):
            latency = None
            if not isnan(done):
                latency = done - arrival
                completed.append(row)
                latencies.append(latency)
            if shed or (latency is not None and not isnan(deadline)
                        and latency > deadline):
                missed += 1
        return StreamTally(completed, latencies, missed)

    @property
    def completed(self) -> list:
        """Completed requests as views, in submission order."""
        return [self.log.record(row) for row in self.tally.completed]

    @property
    def shed_count(self) -> int:
        return self.log.shed.count(1)

    @property
    def latencies(self) -> array:
        return self.tally.latencies

    def latency_percentile(self, q: float) -> float:
        latencies = self.latencies
        return percentile(latencies, q) if latencies else 0.0

    @property
    def miss_fraction(self) -> float:
        """Fraction of requests that violated their deadline (shed
        requests count: they never met any SLO)."""
        if not len(self.log):
            return 0.0
        return self.tally.missed / len(self.log)

    @property
    def out_of_order(self) -> int:
        """Completions that overtook an earlier-submitted request."""
        index = self.log.index
        overtaken = 0
        frontier = -1
        for row in self.log.order:
            if index[row] < frontier:
                overtaken += 1
            else:
                frontier = index[row]
        return overtaken

    @property
    def makespan(self) -> float:
        completed = self.log.completed
        done = self.tally.completed
        return max(completed[row] for row in done) if done else 0.0

    @property
    def throughput_rps(self) -> float:
        """Delivered requests/second over the tenant's active window."""
        window = self.makespan - self.spec.start
        return len(self.tally.completed) / window if window > 0 else 0.0

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
            "reqs": len(self.log),
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


class StreamReport(ClusterReport):
    """Everything the streaming service measured about one run.

    ``tenants`` are the :class:`TenantStreamResult` streams.  The report
    adds no fields to :class:`~repro.serve.runtime.ClusterReport`, only
    the request-level views below.
    """

    @property
    def total_requests(self) -> int:
        return sum(len(tenant.log) for tenant in self.tenants)

    @property
    def total_completed(self) -> int:
        return sum(len(tenant.tally.completed) for tenant in self.tenants)

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

    @cached_property
    def p99_latency(self) -> float:
        """p99 request latency over every tenant, selected once on first
        access (the report is built after the run, so it cannot go
        stale)."""
        latencies = _Joined([tenant.latencies for tenant in self.tenants])
        return percentile(latencies, 99) if latencies else 0.0
