"""Multi-tenant preprocessing service: traces, schedulers, co-simulation.

The serving layer turns the single-job profiler into a cluster-level
what-if engine (paper Sec. 7 made executable): J tenant jobs run as
concurrent discrete-event processes on one shared storage cluster, page
cache and CPU pool, under a pluggable scheduler policy.

Quickstart::

    from repro.serve import PreprocessingService, bursty_trace

    trace = bursty_trace(tenants=8, seed=0)
    report = PreprocessingService(policy="cache-aware", slots=2).run(trace)
    print(report.aggregate_sps, report.total_slo_violations)

CLI surface: ``presto serve --tenants 8 --policy cache-aware --seed 0``.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.doctor": ("ServiceDiagnosis", "ServiceFinding",
                           "cluster_fractions", "diagnose_service"),
    "repro.serve.fanout": ("fan_out_frame_simulated", "fan_out_trace",
                           "simulate_fan_out"),
    "repro.serve.jobs": ("DEFAULT_PIPELINE_MIX", "TRACE_KINDS", "JobSpec",
                         "bursty_trace", "diurnal_trace", "generate_trace",
                         "inject_faults", "operations_trace",
                         "poisson_trace", "steady_trace", "with_epochs"),
    "repro.serve.policies": ("POLICIES", "POLICY_NAMES", "CacheAwarePolicy",
                             "FairSharePolicy", "FifoPolicy",
                             "SchedulerPolicy", "get_policy"),
    "repro.serve.service": ("PreprocessingService", "ServiceReport",
                            "TenantJob", "percentile"),
    "repro.serve.sweep": ("PolicySweepResult", "sweep_policies"),
})

__all__ = [
    "CacheAwarePolicy",
    "DEFAULT_PIPELINE_MIX",
    "FairSharePolicy",
    "FifoPolicy",
    "JobSpec",
    "POLICIES",
    "POLICY_NAMES",
    "PolicySweepResult",
    "PreprocessingService",
    "SchedulerPolicy",
    "ServiceDiagnosis",
    "ServiceFinding",
    "ServiceReport",
    "TRACE_KINDS",
    "TenantJob",
    "bursty_trace",
    "cluster_fractions",
    "diagnose_service",
    "diurnal_trace",
    "fan_out_frame_simulated",
    "fan_out_trace",
    "generate_trace",
    "get_policy",
    "inject_faults",
    "percentile",
    "operations_trace",
    "poisson_trace",
    "simulate_fan_out",
    "steady_trace",
    "sweep_policies",
    "with_epochs",
]
