"""Cluster-level bottleneck attribution for the serving layer.

A single-job diagnosis answers "where does *this* strategy's epoch time
go?".  A service run needs the cluster-level version: across J tenants
sharing one storage cluster, page cache and CPU pool, which shared
resource is binding, and what operational levers (policy, slots,
hardware) would move it?  :func:`diagnose_service` aggregates every
tenant epoch's :class:`~repro.sim.trace.ResourceTrace` into one
cluster attribution and derives ranked findings from the service
counters -- the kind of verdicts a cluster operator acts on
("metadata service saturated by tenant churn", "duplicate offline
preprocessing", "shared read link saturated").

:class:`Finding` and :class:`Diagnosis` are the one ranked-verdict
format the cluster doctor and the stream latency doctor
(:mod:`repro.stream.doctor`) both return.  They live here, not in
:mod:`repro.diagnosis`, so a simulator run never imports the analytic
model to render its doctor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.backends.base import Environment
from repro.errors import DiagnosisError
from repro.serve.service import ServiceReport
from repro.sim.trace import TRACE_CATEGORIES, ResourceTrace
from repro.units import fmt_bytes, fmt_duration


@dataclass(frozen=True)
class Finding:
    """One ranked verdict with its supporting numbers."""

    kind: str
    severity: float          # 0..1-ish ranking score, higher is worse
    detail: str
    #: The tenant a per-tenant rewrite targets (None when cluster-wide).
    tenant: Optional[str] = None
    #: Label rendered in brackets after the kind (None renders none).
    scope: Optional[str] = None
    #: p99 request latency the rewrite predicts (None when the finding
    #: is informational rather than a rewrite).
    predicted_p99: Optional[float] = None

    def describe(self) -> str:
        label = self.kind if self.scope is None \
            else f"{self.kind}[{self.scope}]"
        text = f"{label}: {self.detail}"
        if self.predicted_p99 is not None:
            text += f" -> predicted p99 ~{fmt_duration(self.predicted_p99)}"
        return text

    def to_dict(self) -> dict:
        return {"kind": self.kind, "severity": self.severity,
                "detail": self.detail, "tenant": self.tenant,
                "predicted_p99": self.predicted_p99}


@dataclass
class Diagnosis:
    """Ranked findings under one header line for one run.

    Findings rank highest severity first, ties broken by kind then
    tenant.
    """

    header: str
    #: Rendered in place of the ranked list when nothing fired.
    empty_note: str
    findings: list[Finding] = field(default_factory=list)
    #: Run-level fields :meth:`to_dict` exports ahead of the findings.
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        self.findings = sorted(
            self.findings, key=lambda finding: (
                -finding.severity, finding.kind, finding.tenant or ""))

    @property
    def top_finding(self) -> Finding:
        if not self.findings:
            raise DiagnosisError("no findings in this diagnosis")
        return self.findings[0]

    def to_markdown(self) -> str:
        lines = [self.header]
        for rank, finding in enumerate(self.findings, start=1):
            lines.append(f"  {rank}. {finding.describe()}")
        if not self.findings:
            lines.append(f"  {self.empty_note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable export (the uniform doctor schema)."""
        return {**self.summary,
                "findings": [finding.to_dict() for finding in self.findings]}


def read_link_finding(report, storage, advice: str,
                      scope: Optional[str] = None) -> Optional[Finding]:
    """Shared read link utilisation over ``report``'s whole window, as
    a finding when the link ran more than half busy."""
    if report.makespan > 0:
        link_util = (report.bytes_from_storage
                     / (storage.aggregate_bw * report.makespan))
        if link_util > 0.5:
            return Finding(
                "read-link-saturation", min(link_util, 1.0),
                f"shared read link at {link_util:.0%} of "
                f"{fmt_bytes(storage.aggregate_bw)}/s aggregate over the "
                f"window; {advice}", scope=scope)
    return None


def _cluster_trace(report: ServiceReport) -> ResourceTrace:
    """Every tenant epoch's thread-seconds summed into one one-thread
    trace whose duration is the summed wall x threads budget (one pass,
    trace order).

    Unlike :meth:`ResourceTrace.merged` this tolerates heterogeneous
    thread widths: each epoch contributes its own budget.
    """
    cluster = ResourceTrace()
    for trace in report.epoch_traces():
        cluster.duration += trace.total_thread_seconds
        for category in TRACE_CATEGORIES:
            field = f"{category}_seconds"
            setattr(cluster, field,
                    getattr(cluster, field) + getattr(trace, field))
    return cluster


def cluster_fractions(report: ServiceReport) -> dict:
    """Merge every tenant epoch trace into one attribution."""
    return _cluster_trace(report).fractions()


#: Mean queue delay, as a share of the service window, above which
#: tenants are starved of slots.
QUEUE_PRESSURE_SHARE = 0.15


def queue_pressure(jobs, window: float) -> Optional[float]:
    """The mean slot-queue delay of ``jobs`` as a share of ``window``
    when it passes :data:`QUEUE_PRESSURE_SHARE`, else ``None``.

    The doctor's ``queue-pressure`` finding and the control plane's
    autoscaler both decide with this one expression.
    """
    if window > 0 and jobs:
        share = sum(job.queue_delay for job in jobs) / len(jobs) / window
        if share > QUEUE_PRESSURE_SHARE:
            return share
    return None


def diagnose_service(report: ServiceReport,
                     environment: Optional[Environment] = None,
                     ) -> Diagnosis:
    """Attribute a service run's thread-time and rank shared-resource
    findings."""
    if not report.tenants:
        raise DiagnosisError("cannot diagnose an empty service report")
    environment = environment or report.environment
    storage = environment.storage
    cluster = _cluster_trace(report)
    budget = cluster.duration
    fractions = cluster.fractions()
    findings: list[Finding] = []

    # Scheduler queue pressure: tenants spend the service window waiting.
    queue_share = queue_pressure(report.tenants, report.makespan)
    if queue_share is not None:
        findings.append(Finding(
            "queue-pressure", min(queue_share, 1.0),
            f"tenants wait {queue_share:.0%} of the service window "
            f"for one of {report.slots} slots; add slots or "
            f"rebalance the trace"))

    # Metadata service saturated by tenant churn (file-per-sample jobs).
    open_share = cluster.open_seconds / budget if budget > 0 else 0.0
    if open_share > 0.15:
        findings.append(Finding(
            "metadata-saturation", min(open_share * 1.5, 1.0),
            f"metadata service saturated by tenant churn: "
            f"{report.files_opened:,} opens, {open_share:.0%} of "
            f"thread-time queued on {storage.metadata_slots} MDS slots"))

    link = read_link_finding(report, storage,
                             "co-locate cache sharers or add bandwidth")
    if link is not None:
        findings.append(link)

    # Page-cache thrash: many tenants, evictions, low hit ratio.
    if (len(report.tenants) > 1 and report.page_cache_evictions > 0
            and report.cache_hit_ratio < 0.5):
        findings.append(Finding(
            "cache-thrash", 0.6 - report.cache_hit_ratio / 2,
            f"shared page cache thrashes: {report.page_cache_evictions:,} "
            f"evictions, hit ratio {report.cache_hit_ratio:.0%}; the "
            f"tenants' combined working set exceeds RAM"))

    # Duplicate offline preprocessing under non-sharing policies.
    unique_artifacts = len({job.artifact for job in report.tenants
                            if job.offline is not None})
    duplicates = report.offline_runs - unique_artifacts
    if duplicates > 0:
        findings.append(Finding(
            "duplicate-offline", min(0.2 + duplicates * 0.1, 0.9),
            f"{duplicates} duplicate offline materialisation(s) of "
            f"identical artifacts; the cache-aware policy dedupes them"))

    # GIL-bound tenants serialize the whole pool.
    gil_share = cluster.gil_seconds / budget if budget > 0 else 0.0
    if gil_share > 0.25:
        findings.append(Finding(
            "gil-serialization", min(gil_share, 1.0),
            f"external (GIL-holding) steps occupy {gil_share:.0%} of "
            f"thread-time across tenants; co-scheduling GIL-bound jobs "
            f"serializes the shared pool"))

    # Chaos-engine windows (repro.faults).  Gated on fault_events, so
    # fault-free diagnoses are byte-identical to pre-faults builds.
    # Each finding anchors a predicted impact to the injected magnitude
    # (the analytic stretch factor inside the window), so the operator
    # sees what the degradation *costs*, not just that it happened.
    if report.fault_events:
        window_span = report.makespan if report.makespan > 0 else None

        brownouts = [event for event in report.fault_events
                     if event.kind in ("brownout", "blackout")]
        if brownouts:
            dark = sum(event.end - event.start for event in brownouts)
            worst = max(event.magnitude for event in brownouts)
            share = dark / window_span if window_span else 0.0
            aborted = (f", {report.transfers_aborted} in-flight "
                       f"transfer(s) aborted"
                       if report.transfers_aborted else "")
            findings.append(Finding(
                "brownout-detected", min(0.3 + share, 1.0),
                f"storage tier degraded for {dark:.0f}s across "
                f"{len(brownouts)} window(s) (worst 1/{worst:g} of "
                f"nominal capacity{aborted}); storage-bound epochs "
                f"inside the windows stretch up to {worst:.1f}x -- "
                f"enable SLO-aware shedding and brownout-stretched "
                f"retry backoff"))

        stragglers = [event for event in report.fault_events
                      if event.kind == "straggler"]
        if stragglers:
            slow = sum(event.end - event.start for event in stragglers)
            worst_cores = max(int(event.magnitude)
                              for event in stragglers)
            cores = environment.cores
            remaining = max(cores - worst_cores, 1)
            stretch = cores / remaining
            share = slow / window_span if window_span else 0.0
            findings.append(Finding(
                "straggler-detected", min(0.25 + share, 1.0),
                f"straggling worker(s) park up to {worst_cores} of "
                f"{cores} cores for {slow:.0f}s; CPU-bound epochs "
                f"stretch up to {stretch:.2f}x inside the windows -- "
                f"rebalance the trace or let the autoscaler add slots"))

        slowdowns = [event for event in report.fault_events
                     if event.kind == "slowdown"]
        if slowdowns:
            degraded = sum(event.end - event.start for event in slowdowns)
            worst = max(event.magnitude for event in slowdowns)
            share = degraded / window_span if window_span else 0.0
            findings.append(Finding(
                "device-degraded", min(0.2 + share, 1.0),
                f"read-link device degraded for {degraded:.0f}s "
                f"(worst 1/{worst:g} of nominal bandwidth); I/O-bound "
                f"epochs stretch up to {worst:.1f}x inside the windows "
                f"-- prefer cache-resident tenants while degraded"))

    # CPU pool oversubscription.
    if fractions["cpu"] > 0.5 and len(report.tenants) > report.slots:
        findings.append(Finding(
            "cpu-pool-saturation", fractions["cpu"],
            f"CPU pool is the binding resource ({fractions['cpu']:.0%} "
            f"of thread-time) with {len(report.tenants)} tenants on "
            f"{environment.cores} cores; scale cores before slots"))

    dominant = max(fractions, key=fractions.get)
    shares = ", ".join(f"{name} {value:.0%}"
                       for name, value in fractions.items())
    return Diagnosis(
        header=(f"cluster diagnosis [{report.policy}]: bound on "
                f"{dominant} ({shares})"),
        empty_note="(no cluster-level pressure detected)",
        findings=findings,
        summary={"doctor": "service", "policy": report.policy,
                 "dominant": dominant, "fractions": dict(fractions)})
