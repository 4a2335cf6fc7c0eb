"""Latency-regime bottleneck rewrites for streaming runs.

The serve doctor thinks in throughput: thread-time fractions, shared
resource saturation.  Under request/response load the operative
question changes to "where does the *p99 request latency* go, and which
knob moves it?"  The answer decomposes per tenant into queue wait vs
service time, and each finding is a concrete rewrite -- shrink the
batch, raise the prefetch width, bound-and-shed admission -- anchored
by the p99 the rewrite predicts, computed from the same wait/service
split the simulation measured.

:class:`~repro.diagnosis.doctor.BottleneckDoctor` exposes this as
``diagnose_stream(report)`` next to its single-job and cluster-level
entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Optional

from repro.errors import DiagnosisError
from repro.serve.service import percentile
from repro.stream.report import StreamReport, TenantStreamResult
from repro.units import fmt_bytes, fmt_duration

#: Tenant miss fraction above which latency rewrites fire.
MISS_THRESHOLD = 0.05


@dataclass(frozen=True)
class StreamFinding:
    """One ranked latency verdict with its predicted-p99 anchor."""

    kind: str
    severity: float              # 0..1-ish ranking score, higher is worse
    tenant: Optional[str]        # None for cluster-wide findings
    detail: str
    #: p99 request latency the rewrite predicts (None when the finding
    #: is informational rather than a rewrite).
    predicted_p99: Optional[float] = None

    def describe(self) -> str:
        scope = self.tenant if self.tenant is not None else "cluster"
        text = f"{self.kind}[{scope}]: {self.detail}"
        if self.predicted_p99 is not None:
            text += f" -> predicted p99 ~{fmt_duration(self.predicted_p99)}"
        return text

    def to_dict(self) -> dict:
        return {"kind": self.kind, "severity": self.severity,
                "tenant": self.tenant, "detail": self.detail,
                "predicted_p99": self.predicted_p99}


@dataclass
class StreamDiagnosis:
    """Latency attribution plus ranked rewrites for one stream run."""

    p99_latency: float
    miss_fraction: float
    findings: list[StreamFinding] = field(default_factory=list)

    @property
    def top_finding(self) -> StreamFinding:
        if not self.findings:
            raise DiagnosisError("no findings in this diagnosis")
        return self.findings[0]

    def describe(self) -> str:
        return (f"p99 request latency {fmt_duration(self.p99_latency)}, "
                f"deadline misses {self.miss_fraction:.0%}")

    def to_markdown(self) -> str:
        lines = [f"stream diagnosis: {self.describe()}"]
        for rank, finding in enumerate(self.findings, start=1):
            lines.append(f"  {rank}. {finding.describe()}")
        if not self.findings:
            lines.append("  (no latency pressure detected)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable export (the uniform doctor schema)."""
        return {
            "doctor": "stream",
            "p99_latency": self.p99_latency,
            "miss_fraction": self.miss_fraction,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _wait_service_p99(tenant: TenantStreamResult) -> tuple:
    """The tenant's (queue-wait p99, service-time p99) split."""
    log = tenant.log
    done = tenant.tally.completed
    waits = [log.started[row] - log.arrival[row] for row in done]
    services = [log.completed[row] - log.started[row] for row in done]
    return (percentile(waits, 99) if waits else 0.0,
            percentile(services, 99) if services else 0.0)


def diagnose_stream(report: StreamReport) -> StreamDiagnosis:
    """Rank latency rewrites for a stream run (highest severity first,
    ties broken by kind then tenant)."""
    if not report.tenants:
        raise DiagnosisError("cannot diagnose an empty stream report")
    findings: list[StreamFinding] = []

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
            findings.append(StreamFinding(
                "shrink-batch", min(0.3 + tenant.miss_fraction, 1.0),
                spec.tenant,
                f"service time dominates p99 "
                f"({fmt_duration(service_p99)} of "
                f"{fmt_duration(wait_p99 + service_p99)}); halve the "
                f"batch from {spec.batch} to {half}",
                predicted_p99=predicted))

        if wait_p99 > service_p99:
            # Queue-wait bound: requests outpace the workers.  Doubling
            # the prefetch width roughly halves the queueing leg
            # (M/M/c wait shrinks superlinearly; halving is the
            # conservative anchor) without touching service time.
            predicted = service_p99 + wait_p99 / 2
            findings.append(StreamFinding(
                "raise-prefetch",
                min(0.2 + wait_p99 / (wait_p99 + service_p99), 1.0),
                spec.tenant,
                f"queue wait dominates p99 ({fmt_duration(wait_p99)} of "
                f"{fmt_duration(wait_p99 + service_p99)}); raise "
                f"workers from {spec.workers} to {2 * spec.workers}",
                predicted_p99=predicted))

        if spec.queue_bound == 0 and not spec.shed:
            # Unbounded admission: every overload turns into tail
            # latency.  Bounding the queue at 2x the worker width caps
            # p99 near service + bound/workers service times; excess
            # load becomes explicit sheds instead of silent misses.
            bound = 2 * spec.workers
            predicted = service_p99 * (1.0 + bound / spec.workers)
            findings.append(StreamFinding(
                "shed-admission", min(0.4 + tenant.miss_fraction, 1.0),
                spec.tenant,
                f"{tenant.miss_fraction:.0%} deadline misses with an "
                f"unbounded queue (depth peaked at "
                f"{tenant.max_queue_depth}); bound the queue at "
                f"{bound} and shed on overflow",
                predicted_p99=predicted))

    # Shared read link saturation over the whole window (cluster-wide).
    storage = report.environment.storage
    if report.makespan > 0:
        link_util = (report.bytes_from_storage
                     / (storage.aggregate_bw * report.makespan))
        if link_util > 0.5:
            findings.append(StreamFinding(
                "read-link-saturation", min(link_util, 1.0), None,
                f"shared read link at {link_util:.0%} of "
                f"{fmt_bytes(storage.aggregate_bw)}/s aggregate over the "
                f"window; shrink request working sets or add bandwidth"))

    findings.sort(key=lambda finding: (-finding.severity, finding.kind,
                                       finding.tenant or ""))
    return StreamDiagnosis(p99_latency=report.p99_latency,
                           miss_fraction=report.miss_fraction,
                           findings=findings)
