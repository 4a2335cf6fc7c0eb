"""Streaming inference serving: request streams, SLOs, co-simulation.

Where :mod:`repro.serve` models bulk training tenants (epoch-shaped,
throughput-ranked), this package models *latency-shaped* load: seeded
request arrival processes per tenant, per-request max-latency budgets,
batching knobs, queue-depth backpressure and out-of-order completion
accounting, all co-simulated on the same DES substrate.

Quickstart::

    from repro.stream import StreamingService, generate_stream

    streams = generate_stream(tenants=4, seed=0, arrival="burst")
    report = StreamingService().run(streams, seed=0)
    print(report.p99_latency, report.miss_fraction)

CLI surface: ``presto stream --tenants 4 --arrival burst --seed 0``.
"""

from repro.stream.doctor import diagnose_stream
from repro.stream.engine import StreamingService
from repro.stream.report import (RequestLog, RequestRecord, StreamReport,
                                 TenantStreamResult)
from repro.stream.requests import (ARRIVAL_KINDS, RequestPlan,
                                   StreamTenantSpec, arrival_schedule,
                                   epoch_request_plans, generate_stream,
                                   request_plans)

__all__ = [
    "ARRIVAL_KINDS",
    "RequestLog",
    "RequestPlan",
    "RequestRecord",
    "StreamReport",
    "StreamTenantSpec",
    "StreamingService",
    "TenantStreamResult",
    "arrival_schedule",
    "diagnose_stream",
    "epoch_request_plans",
    "generate_stream",
    "request_plans",
]
