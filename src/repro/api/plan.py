"""Inspectable execution plans: what a spec will do before it does it.

``Session.plan(spec)`` resolves an :class:`ExperimentSpec` against the
pipeline registry without executing anything and returns an
:class:`ExperimentPlan`: the resolved pipelines with their strategy
counts, the number of jobs the workload will submit, and a rough
kernel-event-volume estimate (the deterministic cost currency the perf
suite tracks).  ``presto plan experiment.json`` renders it -- the cheap
pre-flight for expensive studies, and the CI gate that keeps every
shipped example spec valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import calibration as cal
from repro.api.spec import ExperimentSpec

#: Rough kernel events per simulated sample batch (grant/timeout pairs
#: for the lock and core holds -- see ROADMAP "event-count reduction").
_EVENTS_PER_BATCH = 8


@dataclass(frozen=True)
class PlannedPipeline:
    """One resolved pipeline: its scale and how many strategies run."""

    name: str
    sample_count: int
    strategies: int

    def describe(self) -> str:
        return (f"{self.name:24s} {self.sample_count:>11,} samples  "
                f"{self.strategies} strategies")


@dataclass
class ExperimentPlan:
    """The resolved, not-yet-executed view of one experiment."""

    spec: ExperimentSpec
    fingerprint: str
    pipelines: List[PlannedPipeline] = field(default_factory=list)
    #: Executor submissions of the main phase: profiling jobs, tenant
    #: jobs or policy runs (exact; matched against execution by tests).
    job_count: int = 0
    #: Upper bound on diagnose verification re-runs (the doctor only
    #: re-runs verifiable, per-strategy-deduplicated rewrites, which
    #: cannot be known before profiling).
    verify_jobs: int = 0
    #: Order-of-magnitude kernel event volume (0: nothing simulated).
    estimated_events: int = 0

    @property
    def kind(self) -> str:
        return self.spec.kind

    def run(self, session=None):
        """Execute this plan; returns the :class:`RunArtifact`."""
        if session is None:
            from repro.api.session import Session
            session = Session()
        return session.run(self.spec)

    def describe(self) -> str:
        """The ``presto plan`` report body."""
        spec = self.spec
        lines = [f"experiment: {spec.kind}"
                 + (f" ({spec.name})" if spec.name else ""),
                 f"fingerprint: {self.fingerprint}",
                 f"backend: {spec.environment.backend}, "
                 f"storage {spec.environment.storage}"]
        if spec.kind in ("serve", "control"):
            sub = spec.serve if spec.kind == "serve" else spec.control
            lines.append(
                f"trace: {sub.trace}(seed {spec.seed}), "
                f"{sub.tenants} tenants, policy {sub.policy}, "
                f"slots {sub.slots}")
            if spec.kind == "control":
                control = spec.control
                features = [f"retry x{control.max_attempts}"]
                if control.fault_rate:
                    features.append(f"faults {control.fault_rate:g}")
                if control.admission_limit is not None:
                    features.append(
                        f"admission {control.admission_limit}/tenant")
                if control.preempt:
                    features.append("preemption")
                if control.autoscale:
                    features.append(
                        f"autoscale <= {control.max_slots or 2 * control.slots}"
                        f" slots")
                lines.append(f"control: {', '.join(features)}")
            lines.append("pipeline mix:")
        elif spec.kind == "stream":
            stream = spec.stream
            lines.append(
                f"arrivals: {stream.arrival}(seed {spec.seed}) "
                f"@{stream.rate:g}/s, {stream.tenants} tenant streams, "
                f"{stream.requests} requests x batch {stream.batch}, "
                f"workers {stream.workers}")
            lines.append("pipeline mix:")
        else:
            lines.append(f"pipelines: {len(self.pipelines)}")
        for pipeline in self.pipelines:
            lines.append(f"  {pipeline.describe()}")
        label = {"serve": "tenant jobs", "control": "tenant jobs",
                 "stream": "tenant streams",
                 "tune": "profiling jobs (after "
                 "analytic screening)"}.get(spec.kind, "profiling jobs")
        lines.append(f"{label}: {self.job_count}")
        if self.verify_jobs:
            lines.append(f"verification re-runs: up to {self.verify_jobs} "
                         f"(top verifiable rewrites)")
        if self.estimated_events:
            lines.append(
                f"estimated kernel events: ~{self.estimated_events:,}")
        else:
            lines.append("estimated kernel events: none (not simulated)")
        return "\n".join(lines)


def build_plan(spec: ExperimentSpec) -> ExperimentPlan:
    """Resolve ``spec`` into an :class:`ExperimentPlan` (no execution)."""
    from repro.api.resolve import resolve_pipeline
    from repro.core.strategy import strategies_for

    spec.validate()
    config = spec.run.to_run_config()
    planned: list[PlannedPipeline] = []
    for name in spec.pipeline_names():
        pipeline = resolve_pipeline(name)
        count = (spec.diagnose.sample_count
                 if spec.kind == "diagnose" and spec.diagnose.sample_count
                 else pipeline.sample_count)
        planned.append(PlannedPipeline(
            name=name, sample_count=count,
            strategies=len(strategies_for(pipeline, config))))

    epochs = config.epochs
    simulated = spec.environment.backend == "simulated"
    verify_jobs = (spec.diagnose.verify_top
                   if spec.kind == "diagnose" else 0)
    if spec.kind in ("serve", "control"):
        sub = spec.serve if spec.kind == "serve" else spec.control
        job_count = sub.tenants
        policies = _policy_count(sub.policy)
        # Tenants each run (offline + epochs) phases of ~max_jobs batches.
        events = (sub.tenants * (epochs + 1)
                  * cal.MAX_JOBS_PER_RUN * _EVENTS_PER_BATCH * policies)
        if spec.kind == "control" and spec.control.fault_rate:
            # Crashed attempts re-run partial work; scale by the worst
            # case of every faulty job burning its full retry budget.
            events *= 1 + spec.control.fault_rate * \
                (spec.control.max_attempts - 1)
    elif spec.kind == "stream":
        stream = spec.stream
        job_count = stream.tenants
        # Each request batch walks the epoch body's resource sequence.
        events = (stream.tenants * stream.requests * _EVENTS_PER_BATCH
                  if simulated else 0)
    elif spec.kind == "fanout":
        runs = (len(spec.fanout.trainers) + 1 if spec.fanout.simulate
                else 1)
        trainer_total = (sum(spec.fanout.trainers) + 1
                         if spec.fanout.simulate else 1)
        job_count = runs
        events = (trainer_total * epochs * cal.MAX_JOBS_PER_RUN
                  * _EVENTS_PER_BATCH if simulated else 0)
    elif spec.kind == "tune":
        from repro.backends.analytic import AnalyticModel
        from repro.core.autotune import screen_strategies
        from repro.core.strategy import enumerate_strategies
        tune = spec.tune
        pipeline = resolve_pipeline(spec.pipelines[0])
        candidates = enumerate_strategies(
            pipeline, threads=tune.threads,
            compressions=tune.compressions,
            cache_modes=tune.cache_modes, epochs=epochs)
        # Run the real (closed-form, cheap) analytic screen so the
        # planned job count matches what AutoTuner will submit exactly,
        # split-point-coverage guarantee included.
        model = AnalyticModel(spec.environment.to_environment())
        job_count = len(screen_strategies(candidates, tune.screen_keep,
                                          model))
        events = (job_count * (epochs + 1) * cal.MAX_JOBS_PER_RUN
                  * _EVENTS_PER_BATCH if simulated else 0)
    else:  # profile / sweep / diagnose: one job per legal strategy
        job_count = sum(pipeline.strategies for pipeline in planned)
        events = ((job_count + verify_jobs) * (epochs + 1)
                  * cal.MAX_JOBS_PER_RUN * _EVENTS_PER_BATCH
                  if simulated else 0)
    return ExperimentPlan(spec=spec, fingerprint=spec.fingerprint(),
                          pipelines=planned, job_count=job_count,
                          verify_jobs=verify_jobs,
                          estimated_events=int(events))


def _policy_count(policy: str) -> int:
    if policy != "all":
        return 1
    from repro.serve.policies import POLICY_NAMES
    return len(POLICY_NAMES)
