"""Latency-regime bottleneck rewrites for streaming runs.

The serve doctor thinks in throughput: thread-time fractions, shared
resource saturation.  Under request/response load the operative
question changes to "where does the *p99 request latency* go, and which
knob moves it?"  The answer decomposes per tenant into queue wait vs
service time, and each finding is a concrete rewrite -- shrink the
batch, raise the prefetch width, bound-and-shed admission -- anchored
by the p99 the rewrite predicts, computed from the same wait/service
split the simulation measured.

:func:`diagnose_stream` returns the cluster doctor's
:class:`~repro.serve.doctor.Diagnosis`.  Each per-tenant rewrite is
scoped to its tenant; the read-link finding is scoped to ``cluster``.
"""

from __future__ import annotations

from array import array
from math import ceil

from repro.errors import DiagnosisError
from repro.serve.doctor import Diagnosis, Finding, read_link_finding
from repro.serve.service import percentile
from repro.stream.report import StreamReport, TenantStreamResult
from repro.units import fmt_duration

#: Tenant miss fraction above which latency rewrites fire.
MISS_THRESHOLD = 0.05


def _wait_service_p99(tenant: TenantStreamResult) -> tuple:
    """The tenant's (queue-wait p99, service-time p99) split."""
    log = tenant.log
    done = tenant.tally.completed
    waits = array("d", (log.started[row] - log.arrival[row] for row in done))
    services = array("d", (log.completed[row] - log.started[row]
                           for row in done))
    return (percentile(waits, 99) if waits else 0.0,
            percentile(services, 99) if services else 0.0)


def diagnose_stream(report: StreamReport) -> Diagnosis:
    """Rank latency rewrites for a stream run."""
    if not report.tenants:
        raise DiagnosisError("cannot diagnose an empty stream report")
    findings: list[Finding] = []

    for tenant in report.tenants:
        if not tenant.tally.completed:
            continue
        if tenant.miss_fraction <= MISS_THRESHOLD:
            continue
        spec = tenant.spec
        wait_p99, service_p99 = _wait_service_p99(tenant)

        if service_p99 >= wait_p99 and spec.batch > 1:
            # Service-time bound: each request carries too many samples.
            # Halving the batch scales the service leg by ceil(b/2)/b
            # (per-sample costs dominate the body), leaving waits as-is.
            half = ceil(spec.batch / 2)
            predicted = wait_p99 + service_p99 * half / spec.batch
            findings.append(Finding(
                "shrink-batch", min(0.3 + tenant.miss_fraction, 1.0),
                f"service time dominates p99 "
                f"({fmt_duration(service_p99)} of "
                f"{fmt_duration(wait_p99 + service_p99)}); halve the "
                f"batch from {spec.batch} to {half}",
                tenant=spec.tenant, scope=spec.tenant,
                predicted_p99=predicted))

        if wait_p99 > service_p99:
            # Queue-wait bound: requests outpace the workers.  Doubling
            # the prefetch width roughly halves the queueing leg
            # (M/M/c wait shrinks superlinearly; halving is the
            # conservative anchor) without touching service time.
            predicted = service_p99 + wait_p99 / 2
            findings.append(Finding(
                "raise-prefetch",
                min(0.2 + wait_p99 / (wait_p99 + service_p99), 1.0),
                f"queue wait dominates p99 ({fmt_duration(wait_p99)} of "
                f"{fmt_duration(wait_p99 + service_p99)}); raise "
                f"workers from {spec.workers} to {2 * spec.workers}",
                tenant=spec.tenant, scope=spec.tenant,
                predicted_p99=predicted))

        if spec.queue_bound == 0 and not spec.shed:
            # Unbounded admission: every overload turns into tail
            # latency.  Bounding the queue at 2x the worker width caps
            # p99 near service + bound/workers service times; excess
            # load becomes explicit sheds instead of silent misses.
            bound = 2 * spec.workers
            predicted = service_p99 * (1.0 + bound / spec.workers)
            findings.append(Finding(
                "shed-admission", min(0.4 + tenant.miss_fraction, 1.0),
                f"{tenant.miss_fraction:.0%} deadline misses with an "
                f"unbounded queue (depth peaked at "
                f"{tenant.max_queue_depth}); bound the queue at "
                f"{bound} and shed on overflow",
                tenant=spec.tenant, scope=spec.tenant,
                predicted_p99=predicted))

    link = read_link_finding(
        report, report.environment.storage,
        "shrink request working sets or add bandwidth", scope="cluster")
    if link is not None:
        findings.append(link)

    return Diagnosis(
        header=(f"stream diagnosis: p99 request latency "
                f"{fmt_duration(report.p99_latency)}, deadline misses "
                f"{report.miss_fraction:.0%}"),
        empty_note="(no latency pressure detected)",
        findings=findings,
        summary={"doctor": "stream", "p99_latency": report.p99_latency,
                 "miss_fraction": report.miss_fraction})
