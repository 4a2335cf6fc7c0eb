"""The Session facade: plan -> run -> report for every workload.

One front door over the four separately-grown engines::

    from repro.api import ExperimentSpec, RunSpec, Session

    spec = ExperimentSpec(kind="sweep", pipelines=("MP3", "FLAC"),
                          run=RunSpec(threads=8))
    session = Session()
    plan = session.plan(spec)        # inspect before paying for it
    artifact = session.run(spec)     # dispatches to the sweep engine
    print(artifact.report)           # == `presto sweep` stdout, byte-wise

``Session.run`` dispatches on ``spec.kind`` to the existing engines
(SweepEngine, AutoTuner, BottleneckDoctor,
PreprocessingService, the fan-out models) and always returns a
:class:`~repro.api.artifact.RunArtifact` -- frame + report text +
kernel-event count + provenance -- so results from different workloads
compose into one comparison frame.  The classic ``presto`` subcommands
are thin shims over this class; their stdout is the artifact's
``report`` field verbatim, which the golden suite pins byte-for-byte.

Side-channel output (progress events, cache hit/miss statistics, sweep
wall-clock) goes to the session's ``stderr`` stream, exactly as the
historical CLI emitted it; pass ``stderr=None`` to silence it.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.api.artifact import Provenance, RunArtifact
from repro.api.plan import ExperimentPlan, build_plan
from repro.api.resolve import resolve_pipeline, resolve_strategy_name
from repro.api.spec import ExperimentSpec
from repro.errors import SpecError


#: Sentinel: "whatever sys.stderr is when the note is emitted" (so
#: stream redirection and pytest's capsys see session side-channel
#: output), as opposed to an explicit stream or ``None`` (silent).
_CURRENT_STDERR = object()


class Session:
    """Runs validated experiment specs through the existing engines."""

    def __init__(self, stderr=_CURRENT_STDERR):
        self._stderr = stderr
        self._last_artifact: Optional[RunArtifact] = None
        #: Per-run telemetry settings (set by run(), never by the spec:
        #: observation must not change spec fingerprints).
        self._telemetry = None

    @property
    def stderr(self):
        """The live side-channel stream (None when silenced)."""
        if self._stderr is _CURRENT_STDERR:
            return sys.stderr
        return self._stderr

    # -- lifecycle ----------------------------------------------------------

    def plan(self, spec: ExperimentSpec) -> ExperimentPlan:
        """Resolve ``spec`` without executing anything."""
        return build_plan(spec)

    def run(self, spec: ExperimentSpec, telemetry=None) -> RunArtifact:
        """Execute ``spec``; returns the workload's RunArtifact.

        ``telemetry`` (a :class:`repro.obs.Telemetry`) turns on metrics
        sampling / span tracing / the live ledger follower for this run
        only.  It rides beside the spec, never inside it, so spec
        fingerprints -- and everything keyed on them -- are unchanged by
        observation.  Only the simulated workloads (serve / control /
        stream) can be observed.
        """
        spec.validate()
        runner = getattr(self, f"_run_{spec.kind}", None)
        if runner is None:  # pragma: no cover - validate() gates kinds
            raise SpecError(f"unknown workload kind {spec.kind!r}")
        if telemetry is not None and telemetry.enabled \
                and spec.kind not in ("serve", "control", "stream"):
            raise SpecError(
                f"telemetry is only available for the simulated "
                f"workloads (serve/control/stream), not {spec.kind!r}")
        self._telemetry = telemetry
        try:
            artifact = runner(spec)
        finally:
            self._telemetry = None
        self._last_artifact = artifact
        return artifact

    @property
    def last_artifact(self) -> Optional[RunArtifact]:
        """The artifact of the most recent :meth:`run` (or None)."""
        return self._last_artifact

    # -- shared plumbing ----------------------------------------------------

    def _note(self, message: str) -> None:
        if self.stderr is not None:
            print(message, file=self.stderr)

    def _cache(self, spec: ExperimentSpec):
        if not spec.executor.cache_dir:
            return None
        from repro.exec.cache import ProfileCache
        return ProfileCache(spec.executor.cache_dir)

    def _report_cache(self, cache) -> None:
        if cache is not None:
            self._note(f"cache: {cache.stats.describe()}")

    def _events_of(self, profiles) -> int:
        """Kernel events across every run of every profile."""
        return sum(run.events_processed
                   for profile in profiles for run in profile.runs)

    def _artifact(self, spec: ExperimentSpec, frame, report: str,
                  events: int = 0) -> RunArtifact:
        return RunArtifact(frame=frame, report=report,
                           provenance=Provenance.capture(spec),
                           events_processed=events)

    def _telemetry_hooks(self):
        """(metrics, tracer) engine arguments for this run."""
        telemetry = self._telemetry
        if telemetry is None or not telemetry.enabled:
            return None, None
        from repro.obs import MetricsRegistry, Tracer
        metrics = (MetricsRegistry(interval=telemetry.metrics_interval)
                   if telemetry.metrics_interval is not None else None)
        tracer = (Tracer(detail=telemetry.trace_detail)
                  if telemetry.trace else None)
        return metrics, tracer

    def _attach_telemetry(self, artifact: RunArtifact, metrics,
                          tracer) -> RunArtifact:
        if metrics is not None:
            artifact.metrics = metrics.to_dict()
        if tracer is not None:
            artifact.trace = tracer.to_chrome()
        return artifact

    def _check_observable(self, spec: ExperimentSpec) -> None:
        """Policy sweeps run several simulations; one metrics/trace
        export cannot represent them, so observation is rejected."""
        telemetry = self._telemetry
        if telemetry is not None and telemetry.enabled:
            raise SpecError(
                "telemetry cannot observe a policy comparison "
                "(policy='all' runs one simulation per policy); pick "
                "a single policy")

    # -- workloads ----------------------------------------------------------

    def _run_profile(self, spec: ExperimentSpec) -> RunArtifact:
        from repro.core.analysis import StrategyAnalysis
        from repro.core.profiler import profiles_frame
        from repro.exec import SweepEngine
        cache = self._cache(spec)
        engine = SweepEngine(spec.environment.to_backend(),
                             jobs=spec.executor.jobs, cache=cache)
        profiles = engine.profile_pipeline(
            resolve_pipeline(spec.pipelines[0]),
            config=spec.run.to_run_config())
        report = StrategyAnalysis(profiles).summary()
        self._report_cache(cache)
        return self._artifact(spec, profiles_frame(profiles),
                              report, self._events_of(profiles))

    def _run_sweep(self, spec: ExperimentSpec) -> RunArtifact:
        from repro.core.analysis import StrategyAnalysis
        from repro.core.profiler import profiles_frame
        from repro.exec import ProgressPrinter, SweepEngine
        cache = self._cache(spec)
        engine = SweepEngine(spec.environment.to_backend(),
                             jobs=spec.executor.jobs, cache=cache)
        if spec.executor.progress and self.stderr is not None:
            engine.add_listener(ProgressPrinter(self.stderr))
        result = engine.sweep(
            [resolve_pipeline(name) for name in spec.pipeline_names()],
            config=spec.run.to_run_config())
        sections = [f"## {name}\n{StrategyAnalysis(profiles).summary()}"
                    for name, profiles in result.profiles.items()]
        report = "\n\n".join(sections)
        self._note(f"sweep: {result.job_count} strategies across "
                   f"{len(result.pipelines)} pipeline(s) in "
                   f"{result.elapsed:.2f}s")
        self._report_cache(cache)
        return self._artifact(
            spec, profiles_frame(result.all_profiles()),
            report, self._events_of(result.all_profiles()))

    def _run_tune(self, spec: ExperimentSpec) -> RunArtifact:
        from repro.core.autotune import AutoTuner
        cache = self._cache(spec)
        tuner = AutoTuner(spec.environment.to_backend(),
                          jobs=spec.executor.jobs, cache=cache)
        tune = spec.tune
        report = tuner.tune(resolve_pipeline(spec.pipelines[0]),
                            weights=tune.to_weights(),
                            threads=tune.threads,
                            compressions=tune.compressions,
                            cache_modes=tune.cache_modes,
                            epochs=spec.run.epochs,
                            screen_keep=tune.screen_keep)
        text = f"{report.frame().to_markdown()}\n\n{report.describe()}"
        self._report_cache(cache)
        return self._artifact(spec, report.frame(), text,
                              self._events_of(report.profiles))

    def _run_diagnose(self, spec: ExperimentSpec) -> RunArtifact:
        from repro.diagnosis import BottleneckDoctor, verification_report
        cache = self._cache(spec)
        doctor = BottleneckDoctor(spec.environment.to_backend(),
                                  jobs=spec.executor.jobs, cache=cache)
        diagnosis = doctor.diagnose(resolve_pipeline(spec.pipelines[0]),
                                    config=spec.run.to_run_config(),
                                    sample_count=spec.diagnose.sample_count)
        text = (f"## diagnosis: {spec.pipelines[0]} "
                f"({spec.run.threads} threads, {spec.environment.storage})"
                f"\n{diagnosis.to_markdown()}")
        events = self._events_of(
            [diag.profile for diag in diagnosis.strategies])
        if spec.diagnose.verify_top:
            verified = doctor.verify(diagnosis,
                                     top=spec.diagnose.verify_top)
            events += self._events_of(
                [item.profile for item in verified
                 if item.profile is not None])
            text += f"\n\n{verification_report(verified)}"
        self._report_cache(cache)
        return self._artifact(spec, diagnosis.frame(), text, events)

    def _serve_header(self, spec: ExperimentSpec, sub) -> str:
        return (f"{sub.tenants} tenants, trace={sub.trace}(seed "
                f"{spec.seed}), slots={sub.slots}, "
                f"{spec.environment.storage}")

    def _serve_sections(self, spec: ExperimentSpec, sub,
                        report) -> list:
        """The single-policy serve report sections.

        ``sub`` is a ServeSpec, or the ControlSpec that extends it.
        Shared so a control run's service view renders *byte-for-byte*
        what ``presto serve`` prints -- the differential guarantee.
        """
        from repro.core.report import service_summary, tenant_table
        from repro.serve import diagnose_service
        header = self._serve_header(spec, sub)
        return [f"## serve: {header}, policy={sub.policy}",
                tenant_table(report).to_markdown(), "",
                service_summary(report), "",
                diagnose_service(report).to_markdown()]

    def _run_serve(self, spec: ExperimentSpec) -> RunArtifact:
        from repro.core.report import tenant_table
        from repro.serve import (PreprocessingService, diagnose_service,
                                 generate_trace, sweep_policies)
        serve = spec.serve
        environment = spec.environment.to_environment()
        trace = generate_trace(serve.trace, serve.tenants, seed=spec.seed,
                               epochs=spec.run.epochs,
                               threads=spec.run.threads)
        if serve.policy == "all":
            self._check_observable(spec)
            if spec.faults.enabled:
                raise SpecError(
                    "faults cannot be injected into a policy comparison "
                    "(policy='all' runs one simulation per policy); "
                    "pick a single policy")
            result = sweep_policies(trace, slots=serve.slots,
                                    environment=environment,
                                    tie_break=serve.tie_break)
            frame = result.frame()
            parts = [f"## serve: {self._serve_header(spec, serve)}, "
                     f"policies compared",
                     frame.to_markdown(), "",
                     f"best policy by aggregate throughput: "
                     f"{result.best_policy()}"]
            for report in result.reports:
                parts += ["", diagnose_service(report).to_markdown()]
            events = sum(report.events_processed
                         for report in result.reports)
            return self._artifact(spec, frame, "\n".join(parts), events)
        metrics, tracer = self._telemetry_hooks()
        service = PreprocessingService(policy=serve.policy,
                                       slots=serve.slots,
                                       environment=environment,
                                       tie_break=serve.tie_break,
                                       metrics=metrics,
                                       tracer=tracer,
                                       faults=spec.faults.to_plan(
                                           spec.seed,
                                           cores=environment.cores))
        report = service.run(trace)
        parts = self._serve_sections(spec, serve, report)
        artifact = self._artifact(spec, tenant_table(report),
                                  "\n".join(parts),
                                  report.events_processed)
        return self._attach_telemetry(artifact, metrics, tracer)

    def _run_control(self, spec: ExperimentSpec) -> RunArtifact:
        from repro.ctl import Dispatcher, control_summary, control_table
        from repro.serve import generate_trace
        control = spec.control
        environment = spec.environment.to_environment()
        trace = generate_trace(control.trace, control.tenants,
                               seed=spec.seed, epochs=spec.run.epochs,
                               threads=spec.run.threads,
                               fault_rate=control.fault_rate)
        metrics, tracer = self._telemetry_hooks()
        dispatcher = Dispatcher(policy=control.policy, slots=control.slots,
                                environment=environment,
                                tie_break=control.tie_break,
                                retry=control.retry_policy(),
                                admission_limit=control.admission_limit,
                                preempt=control.preempt,
                                autoscale=control.autoscale_config(),
                                metrics=metrics,
                                tracer=tracer,
                                faults=spec.faults.to_plan(
                                    spec.seed,
                                    cores=environment.cores),
                                checkpoint_epochs=(
                                    spec.faults.checkpoint_epochs),
                                shed_slo=spec.faults.shed_slo)
        telemetry = self._telemetry
        if telemetry is not None and telemetry.follow is not None:
            from repro.obs import LedgerFollower
            follower = LedgerFollower(telemetry.follow)
            dispatcher.subscribe(follower.entry)
            dispatcher.subscribe_autoscale(follower.autoscale)
        report = dispatcher.run(trace)
        parts = self._serve_sections(spec, control, report.service)
        parts += ["", "## control plane", control_summary(report), "",
                  control_table(report).to_markdown()]
        artifact = self._artifact(spec, control_table(report),
                                  "\n".join(parts),
                                  report.events_processed)
        return self._attach_telemetry(artifact, metrics, tracer)

    def _run_stream(self, spec: ExperimentSpec) -> RunArtifact:
        from repro.core.report import stream_summary, stream_table
        from repro.stream import (StreamingService, diagnose_stream,
                                  generate_stream)
        stream = spec.stream
        environment = spec.environment.to_environment()
        streams = generate_stream(
            stream.tenants, seed=spec.seed, arrival=stream.arrival,
            rate=stream.rate, requests=stream.requests,
            batch=stream.batch, workers=stream.workers,
            queue_bound=stream.queue_bound,
            slo_stretch=stream.slo_stretch, shed=stream.shed)
        metrics, tracer = self._telemetry_hooks()
        service = StreamingService(environment=environment,
                                   metrics=metrics,
                                   tracer=tracer,
                                   faults=spec.faults.to_plan(
                                       spec.seed,
                                       cores=environment.cores))
        report = service.run(streams, seed=spec.seed)
        header = (f"{stream.tenants} tenant streams, "
                  f"arrival={stream.arrival}(seed {spec.seed}) "
                  f"@{stream.rate:g}/s, batch={stream.batch}, "
                  f"workers={stream.workers}, "
                  f"{spec.environment.storage}")
        parts = [f"## stream: {header}",
                 stream_table(report).to_markdown(), "",
                 stream_summary(report), "",
                 diagnose_stream(report).to_markdown()]
        artifact = self._artifact(spec, stream_table(report),
                                  "\n".join(parts),
                                  report.events_processed)
        return self._attach_telemetry(artifact, metrics, tracer)

    def _run_fanout(self, spec: ExperimentSpec) -> RunArtifact:
        pipeline_name = spec.pipelines[0]
        pipeline = resolve_pipeline(pipeline_name)
        strategy = resolve_strategy_name(pipeline_name,
                                         spec.fanout.strategy)
        plan = pipeline.split_at(strategy)
        config = spec.run.to_run_config()
        trainers = tuple(spec.fanout.trainers)
        if spec.fanout.simulate:
            from repro.serve import fan_out_frame_simulated
            stats: dict = {}
            frame = fan_out_frame_simulated(
                plan, config, trainer_counts=trainers,
                environment=spec.environment.to_environment(),
                stats=stats)
            report = (f"co-simulating fan-out of "
                      f"{pipeline_name}/{strategy} "
                      f"(analytic bound vs DES delivery):\n"
                      f"{frame.to_markdown()}")
            return self._artifact(spec, frame, report,
                                  stats.get("events_processed", 0))
        from repro.core.distributed import fan_out_frame
        single = spec.environment.to_backend().run(plan, config)
        frame = fan_out_frame(plan, config,
                              single_job_sps=single.throughput,
                              trainer_counts=trainers)
        report = (f"fanning out {pipeline_name}/{strategy} "
                  f"(single-trainer T4 = {single.throughput:.0f} SPS):\n"
                  f"{frame.to_markdown()}")
        return self._artifact(spec, frame, report,
                              single.events_processed)
