"""Rendering helpers for profiling results.

Turns profile collections into the paper's presentation formats: the
Fig. 6-style storage-vs-throughput listing, Table 1-style trade-off rows
and compact bottleneck summaries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.backends.analytic import AnalyticModel
from repro.backends.base import RunConfig
from repro.core.frame import Frame
from repro.core.profiler import StrategyProfile
from repro.pipelines.base import PipelineSpec
from repro.units import fmt_bytes, fmt_duration, fmt_sps


def storage_vs_throughput(profiles: Sequence[StrategyProfile]) -> Frame:
    """Fig. 6 data: one row per strategy, storage and T4 throughput."""
    return Frame.from_records([
        {
            "strategy": profile.strategy.split_name,
            "storage": fmt_bytes(profile.storage_bytes),
            "storage_gb": profile.storage_bytes / 1e9,
            "throughput_sps": profile.throughput,
        }
        for profile in profiles
    ])


def tradeoff_table(profiles: Sequence[StrategyProfile]) -> Frame:
    """Table 1 layout: strategy, throughput, storage consumption."""
    return Frame.from_records([
        {
            "Preprocessing strategy": profile.strategy.split_name,
            "Throughput in samples/s": round(profile.throughput),
            "Storage Consumption in GB": round(
                profile.storage_bytes / 1e9, 1),
        }
        for profile in profiles
    ])


def bottleneck_report(pipeline: PipelineSpec,
                      config: Optional[RunConfig] = None,
                      model: Optional[AnalyticModel] = None) -> str:
    """"Where is my bottleneck?" -- per-strategy binding resources.

    Uses the analytic model's per-resource bounds to answer the paper's
    title question for every split point.
    """
    model = model or AnalyticModel()
    config = config or RunConfig()
    lines = [f"Bottleneck report for pipeline {pipeline.name!r} "
             f"({config.threads} threads):"]
    for plan in pipeline.split_points():
        if plan.is_unprocessed and config.compression:
            continue
        estimate = model.estimate(plan, config)
        lines.append(
            f"  {plan.strategy_name:>20s}: ~{fmt_sps(estimate.throughput)}"
            f", bound by {estimate.bottleneck}"
            f" (storage {fmt_bytes(estimate.storage_bytes)})")
    return "\n".join(lines)


def attribution_table(profiles: Sequence[StrategyProfile]) -> Frame:
    """Diagnosis columns: attribution fractions per strategy.

    Rows come straight from :meth:`StrategyProfile.to_record`, which
    carries ``cpu_frac``/``storage_frac``/``decode_frac``/``stall_frac``
    and ``bound`` whenever the backend measured a resource trace.
    """
    defaults = {"cpu_frac": None, "storage_frac": None, "decode_frac": None,
                "stall_frac": None, "bound": None}
    return Frame.from_records([
        {**defaults, **profile.to_record()} for profile in profiles
    ]).select(["strategy", "throughput_sps", "cpu_frac", "storage_frac",
               "decode_frac", "stall_frac", "bound"])


def tenant_table(report) -> Frame:
    """Per-tenant service metrics, one row per tenant job.

    ``report`` is a :class:`repro.serve.service.ServiceReport` (taken
    duck-typed so this layer does not import the serving layer above
    it): p50/p99 epoch time, delivered throughput, stall fraction,
    cache hit ratio and SLO violations per tenant.
    """
    return Frame.from_records(
        [job.to_record() for job in report.tenants])


def service_summary(report) -> str:
    """One-line operator summary of a service run."""
    dedup = (f" (+{report.offline_deduped} deduped)"
             if report.offline_deduped else "")
    return (f"service [{report.policy}]: {len(report.tenants)} tenant(s) "
            f"on {report.slots} slot(s), makespan "
            f"{fmt_duration(report.makespan)}, aggregate "
            f"{fmt_sps(report.aggregate_sps)}, cache hit "
            f"{report.cache_hit_ratio:.0%}, offline {report.offline_runs} "
            f"run(s){dedup}, SLO violations "
            f"{report.total_slo_violations}")


def stream_table(report) -> Frame:
    """Per-tenant streaming metrics, one row per request stream.

    ``report`` is a :class:`repro.stream.report.StreamReport` (taken
    duck-typed so this layer does not import the streaming layer above
    it): p50/p99 request latency, deadline-miss fraction, sheds,
    out-of-order completions, peak queue depth and delivered
    requests/second per tenant.
    """
    return Frame.from_records(
        [tenant.to_record() for tenant in report.tenants])


def stream_summary(report) -> str:
    """One-line operator summary of a streaming run."""
    shed = f", shed {report.total_shed}" if report.total_shed else ""
    slo_shed = (f", slo-shed {report.total_slo_shed}"
                if report.total_slo_shed else "")
    faults = (f", {len(report.fault_events)} fault window(s)"
              if report.fault_events else "")
    return (f"stream: {len(report.tenants)} tenant stream(s), "
            f"{report.total_requests} request(s), makespan "
            f"{fmt_duration(report.makespan)}, p99 latency "
            f"{fmt_duration(report.p99_latency)}, deadline misses "
            f"{report.miss_fraction:.0%}{shed}{slo_shed}, cache hit "
            f"{report.cache_hit_ratio:.0%}{faults}")


def profile_summary(profile: StrategyProfile) -> str:
    """One-paragraph human summary of a single strategy profile."""
    run = profile.result
    pieces = [
        f"strategy {profile.strategy.name} on pipeline {run.pipeline}:",
        f"throughput {fmt_sps(profile.throughput)}",
        f"storage {fmt_bytes(profile.storage_bytes)}",
    ]
    if run.offline is not None:
        pieces.append(
            f"offline preprocessing {fmt_duration(run.offline.duration)}")
    if len(run.epochs) > 1:
        pieces.append(
            f"cached epochs reach {fmt_sps(profile.cached_throughput)}")
    if run.app_cache_failed:
        pieces.append("application cache FAILED (dataset exceeds RAM)")
    return " ".join(pieces)
