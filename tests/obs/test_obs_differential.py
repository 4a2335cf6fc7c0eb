"""The telemetry wall: observation must not change the experiment.

Two invariants, differentially enforced across serve/ctl/stream:

* **Tracing is event-free.**  A tracer (even ``detail=True``) only
  reads the simulation clock, so a traced run resolves *exactly* the
  same kernel event count and renders a byte-identical report.
* **Metrics sampling is report-free.**  The sampler is a real DES
  process (it adds timeout events by design), but it must never perturb
  the workload: the rendered report -- makespans, throughputs, per-
  tenant rows -- stays byte-identical.

Telemetry *off* costs zero extra events by construction (the hooks are
``None`` and no sampler is spawned); that side of the wall is pinned by
the goldens and ``make bench-check`` event counts, which predate this
subsystem and must never drift.
"""

import hashlib
import json

import pytest

from repro.core.report import (service_summary, stream_summary,
                               stream_table, tenant_table)
from repro.ctl.dispatcher import AutoscaleConfig, Dispatcher
from repro.ctl.report import control_summary, control_table
from repro.faults.plan import Brownout, FaultPlan, generate_fault_plan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serve.jobs import generate_trace
from repro.serve.service import PreprocessingService
from repro.stream import StreamingService, generate_stream


def serve_jobs():
    return generate_trace("bursty", tenants=4, seed=0)


def ctl_jobs():
    return generate_trace("steady", tenants=4, seed=5, fault_rate=0.5)


def streams():
    return generate_stream(tenants=2, seed=0, arrival="burst", requests=8)


def render_serve(report) -> str:
    return (tenant_table(report).to_markdown() + "\n"
            + service_summary(report))


class TestTracingIsEventFree:
    def test_serve(self):
        baseline = PreprocessingService(policy="cache-aware").run(
            serve_jobs())
        tracer = Tracer(detail=True)
        traced = PreprocessingService(policy="cache-aware",
                                      tracer=tracer).run(serve_jobs())
        assert traced.events_processed == baseline.events_processed
        assert render_serve(traced) == render_serve(baseline)
        assert tracer.spans, "tracer recorded nothing"

    def test_ctl(self):
        baseline = Dispatcher().run(ctl_jobs())
        tracer = Tracer()
        traced_dispatcher = Dispatcher(tracer=tracer)
        traced = traced_dispatcher.run(ctl_jobs())
        assert traced.events_processed == baseline.events_processed
        assert traced.ledger.describe() == baseline.ledger.describe()
        assert tracer.instants, "no ledger instants recorded"

    def test_stream(self):
        baseline = StreamingService().run(streams(), seed=0)
        tracer = Tracer()
        traced = StreamingService(tracer=tracer).run(streams(), seed=0)
        assert traced.events_processed == baseline.events_processed
        assert stream_table(traced).to_markdown() \
            == stream_table(baseline).to_markdown()
        assert [span.cat for span in tracer.spans] \
            == ["request"] * len(tracer.spans)


class TestMetricsSamplingIsReportFree:
    def test_serve(self):
        baseline = PreprocessingService().run(serve_jobs())
        observed = PreprocessingService(
            metrics=MetricsRegistry(interval=120.0)).run(serve_jobs())
        assert render_serve(observed) == render_serve(baseline)
        assert observed.makespan == baseline.makespan

    def test_ctl(self):
        baseline = Dispatcher().run(ctl_jobs())
        observed = Dispatcher(
            metrics=MetricsRegistry(interval=120.0)).run(ctl_jobs())
        assert observed.ledger.describe() == baseline.ledger.describe()
        assert observed.service.makespan == baseline.service.makespan

    def test_stream(self):
        baseline = StreamingService().run(streams(), seed=0)
        observed = StreamingService(
            metrics=MetricsRegistry(interval=60.0)).run(streams(), seed=0)
        assert stream_table(observed).to_markdown() \
            == stream_table(baseline).to_markdown()
        assert observed.p99_latency == baseline.p99_latency


class TestKernelEventCount:
    """Every workload report carries the run's kernel event count."""

    @pytest.mark.parametrize("report_factory", [
        lambda: PreprocessingService().run(serve_jobs()),
        lambda: Dispatcher().run(ctl_jobs()),
        lambda: StreamingService().run(streams(), seed=0),
    ], ids=["serve", "ctl", "stream"])
    def test_reports_count_kernel_events(self, report_factory):
        assert report_factory().events_processed > 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _metrics_serve():
    registry = MetricsRegistry(interval=120.0)
    report = PreprocessingService(
        policy="cache-aware", metrics=registry).run(serve_jobs())
    return registry, report, render_serve(report)


def _metrics_ctl():
    """Autoscaler, a pre-run cancel and all five fault shapes: every
    process kind the control plane spawns, in one metrics-on run."""
    jobs = generate_trace("bursty", tenants=6, seed=5, fault_rate=0.5)
    plan = generate_fault_plan(3, 3708.0, stragglers=1, slowdowns=1,
                               brownouts=1, blackouts=1, crash_windows=1)
    registry = MetricsRegistry(interval=120.0)
    dispatcher = Dispatcher(
        slots=1, metrics=registry,
        autoscale=AutoscaleConfig(min_slots=1, max_slots=4,
                                  interval=300.0),
        faults=plan, shed_slo=True)
    dispatcher.cancel("job-002", at=50.0)
    report = dispatcher.run(jobs)
    rendered = (control_table(report).to_markdown() + "\n"
                + control_summary(report))
    return registry, report, rendered


def _render_stream(report) -> str:
    return stream_table(report).to_markdown() + "\n" + stream_summary(report)


def _metrics_stream():
    registry = MetricsRegistry(interval=60.0)
    report = StreamingService(metrics=registry).run(streams(), seed=0)
    return registry, report, _render_stream(report)


def _metrics_stream_brownout_shed():
    plan = FaultPlan(brownouts=(Brownout(start=5.0, duration=15.0,
                                         factor=4.0),))
    registry = MetricsRegistry(interval=5.0)
    report = StreamingService(metrics=registry, faults=plan).run(
        generate_stream(tenants=2, seed=0, arrival="burst", requests=8,
                        shed=True), seed=0)
    assert report.total_slo_shed > 0 and report.fault_events
    return registry, report, _render_stream(report)


class TestTelemetryOnOutputsArePinned:
    """Metrics-on runs, pinned exactly: the exported registry (gauge
    insertion order included), the kernel event count (sampler and
    fault-window events included) and the rendered report.  The
    telemetry-off side is pinned by the goldens; this pins the side
    where the sampler, the fault engine and the workload processes all
    share one simulation, so their creation order shows."""

    @pytest.mark.parametrize("scenario,metrics_sha,events,report_sha", [
        (_metrics_serve,
         "972f8b205a7de57b85075d02285253237a103a8e034384e7c7b65819d5bb221c",
         198256,
         "83fd47a4dae4138070cbb7b5b4baf82f5ca38cdf0674894fbed8ef8f7259a2b0"),
        (_metrics_ctl,
         "dafc1585b6f537111571c53c01a408ebc45340debf996af0ab5ffdd7440676b3",
         372479,
         "4d0141cf14c82157a76116a0b3d625d56e92a9204095b738076d9c44c4b4d24e"),
        (_metrics_stream,
         "7d56a22d345abd3b00bdd0a87374dd0bb3f9cf9abeef00da262b59cbbc80f1db",
         170,
         "0baf179f3c53908cb12e3b0274df84c884bfa21d3eb85e69457e336983a926bd"),
        (_metrics_stream_brownout_shed,
         "fdecca733884b8478620c52f0e138e071f7e811d2b4cf7b76e6901b38cba564e",
         114,
         "9002261ad01212a17968f0a30f6ab5dadf8d1b6ca4fd9bf7fd1c6d0afc2c011b"),
    ], ids=["serve", "ctl", "stream", "stream-brownout-shed"])
    def test_outputs_match_pins(self, scenario, metrics_sha, events,
                                report_sha):
        registry, report, rendered = scenario()
        assert _sha256(json.dumps(registry.to_dict(),
                                  sort_keys=False)) == metrics_sha
        assert report.events_processed == events
        assert _sha256(rendered) == report_sha

    @pytest.mark.parametrize("run,trace_sha", [
        (lambda tracer: PreprocessingService(
            policy="cache-aware", tracer=tracer).run(serve_jobs()),
         "1f5e7c3626db1b2d54d8fd8fca3eded20ebd32bef0d72adca9df3d2e02ee012d"),
        (lambda tracer: Dispatcher(tracer=tracer).run(ctl_jobs()),
         "bcc4832d50c14c7fc5c38d7674d9057c8601bffe6db148164e2639b73f555a3a"),
        (lambda tracer: StreamingService(tracer=tracer).run(
            streams(), seed=0),
         "c26570177abd7a5de955f68e2c18a39257d077db029a8e91087b3e78cd27421a"),
    ], ids=["serve", "ctl", "stream"])
    def test_detail_trace_matches_pins(self, run, trace_sha):
        """The ``batch``, ``cache-read`` and ``storage-read`` leaves a
        ``detail=True`` tracer records, pinned byte-for-byte alongside
        the epoch, job and request spans around them."""
        tracer = Tracer(detail=True)
        run(tracer)
        assert _sha256(json.dumps(tracer.to_chrome(),
                                  sort_keys=True)) == trace_sha
