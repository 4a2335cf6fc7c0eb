"""Byte pins on every rendering of the cluster and stream doctors.

The goldens render only the findings a real pinned run happens to fire.
These small hand-made reports fire every serve finding kind (the three
chaos-window kinds included), every stream rewrite, both read-link
scopes and both "nothing detected" notes, and pin the SHA-256 of each
``to_markdown()`` so a change to the shared finding/diagnosis types
cannot move a byte of doctor output.
"""

import hashlib

import pytest

from repro.backends.base import EpochResult, Environment, OfflineResult
from repro.faults.engine import FaultEvent
from repro.serve import JobSpec, diagnose_service
from repro.serve.service import ServiceReport, TenantJob
from repro.sim.trace import ResourceTrace
from repro.stream import StreamTenantSpec, diagnose_stream
from repro.stream.report import (RequestLog, RequestRecord, StreamReport,
                                 TenantStreamResult)

ENVIRONMENT = Environment()


def _job(tenant: str, granted: float, trace=None,
         offline: bool = False) -> TenantJob:
    epochs = [] if trace is None else [EpochResult(
        epoch=0, duration=trace.duration, samples=100,
        bytes_from_storage=0.0, bytes_from_cache=0.0, cache_hit_rate=0.0,
        trace=trace)]
    return TenantJob(
        spec=JobSpec(tenant=tenant, pipeline="MP3",
                     split="spectrogram-encoded"),
        plan=None, config=None, arrival=0.0, granted=granted,
        offline=OfflineResult(1.0, 0.0, 0.0) if offline else None,
        epochs=epochs)


def _busy_trace(**seconds) -> ResourceTrace:
    return ResourceTrace(duration=10.0, threads=4, **seconds)


def _fault(kind: str, start: float, end: float,
           magnitude: float) -> FaultEvent:
    return FaultEvent(kind=kind, start=start, end=end,
                      magnitude=magnitude, detail="")


def _service_reports() -> dict:
    link = ENVIRONMENT.storage.aggregate_bw
    every_kind = ServiceReport(
        policy="fifo", slots=1, environment=ENVIRONMENT,
        tenants=[_job(f"t{i}", 40.0, _busy_trace(
                     open_seconds=8.0, cpu_seconds=10.0, gil_seconds=12.0),
                      offline=True)
                 for i in range(3)],
        makespan=100.0, offline_runs=3, bytes_from_storage=0.8 * link * 100,
        bytes_from_cache=0.1 * link * 100, files_opened=12_345,
        page_cache_evictions=77,
        fault_events=[_fault("brownout", 10.0, 30.0, 4.0),
                      _fault("blackout", 50.0, 55.0, 8.0),
                      _fault("straggler", 20.0, 60.0, 6.0),
                      _fault("slowdown", 5.0, 25.0, 3.0)],
        transfers_aborted=2)
    windows_only = ServiceReport(
        policy="cache-aware", slots=2, environment=ENVIRONMENT,
        tenants=[_job("a", 0.0, _busy_trace(read_seconds=20.0))],
        makespan=0.0,
        fault_events=[_fault("straggler", 0.0, 10.0, 2.0),
                      _fault("slowdown", 0.0, 10.0, 2.0)])
    quiet = ServiceReport(
        policy="fair-share", slots=2, environment=ENVIRONMENT,
        tenants=[_job("a", 0.0), _job("b", 1.0)], makespan=100.0)
    return {"every-kind": every_kind, "windows-only": windows_only,
            "quiet": quiet}


def _stream_tenant(name: str, wait: float, service: float,
                   miss: bool = True, **overrides) -> TenantStreamResult:
    spec = StreamTenantSpec(**{"tenant": name, "pipeline": "MP3",
                               "split": "decoded", "batch": 8,
                               "workers": 2, **overrides})
    records = [RequestRecord(
        index=index, arrival=float(index), batch=spec.batch, chunk=index,
        worker=0, enqueued=float(index), started=index + wait,
        completed=index + wait + service, deadline=0.1 if miss else 1e9)
        for index in range(10)]
    return TenantStreamResult(
        spec=spec, log=RequestLog.from_records(records, records))


def _stream_reports() -> dict:
    link = ENVIRONMENT.storage.aggregate_bw

    def report(*tenants, bytes_from_storage=0.0):
        return StreamReport(environment=ENVIRONMENT, tenants=list(tenants),
                            makespan=100.0,
                            bytes_from_storage=bytes_from_storage)

    return {
        "every-kind": report(
            _stream_tenant("t1", wait=5.0, service=0.1),
            _stream_tenant("t0", wait=5.0, service=0.1),
            _stream_tenant("svc", wait=0.1, service=5.0, queue_bound=4),
            _stream_tenant("calm", wait=0.01, service=0.02, miss=False),
            bytes_from_storage=0.7 * link * 100),
        "quiet": report(
            _stream_tenant("calm", wait=0.01, service=0.02, miss=False)),
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SERVICE_PINS = {
    "every-kind":
        "ca87cc7e7f1993fc62f36ad793aa99fadec04e13179f810cad002af5c4f06516",
    "windows-only":
        "82df91a8790bb1094a010b27cd0a490b424b6c8c2bb4b9083def3e7a2a9d81c5",
    "quiet":
        "440492bac6e220f0f6a53153f329ffca0cb9486670cdf8affde5a11308e91f9a",
}

STREAM_PINS = {
    "every-kind":
        "b5adcb304d60e3aa1d117ef2b0c11a7d3fc87623942b296ccb1053387161b981",
    "quiet":
        "5d95f92120b6fa07283def64f1dc9e8cf8d3cbbb7fc7d86b8ab7464e6a95340b",
}


@pytest.mark.parametrize("name", sorted(SERVICE_PINS))
def test_service_doctor_rendering_is_pinned(name):
    text = diagnose_service(_service_reports()[name]).to_markdown()
    assert _sha(text) == SERVICE_PINS[name], text


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_stream_doctor_rendering_is_pinned(name):
    text = diagnose_stream(_stream_reports()[name]).to_markdown()
    assert _sha(text) == STREAM_PINS[name], text


def test_pinned_reports_fire_every_finding_kind():
    serve_kinds = {finding.kind for report in _service_reports().values()
                   for finding in diagnose_service(report).findings}
    assert serve_kinds == {
        "queue-pressure", "metadata-saturation", "read-link-saturation",
        "cache-thrash", "duplicate-offline", "gil-serialization",
        "brownout-detected", "straggler-detected", "device-degraded",
        "cpu-pool-saturation"}
    stream_kinds = {finding.kind for report in _stream_reports().values()
                    for finding in diagnose_stream(report).findings}
    assert stream_kinds == {"shrink-batch", "raise-prefetch",
                            "shed-admission", "read-link-saturation"}
