"""Tests for the stream latency doctor's rewrite findings."""

import pytest

from repro.backends.base import Environment
from repro.errors import DiagnosisError
from repro.stream import StreamTenantSpec, diagnose_stream
from repro.stream.doctor import MISS_THRESHOLD
from repro.stream.report import (RequestLog, RequestRecord, StreamReport,
                                 TenantStreamResult)


def make_tenant(wait: float, service: float, miss: bool = True,
                **overrides) -> TenantStreamResult:
    """A synthetic tenant whose every request waited ``wait`` seconds
    and served in ``service`` seconds."""
    base = dict(tenant="t0", pipeline="MP3", split="decoded",
                batch=8, workers=2)
    base.update(overrides)
    spec = StreamTenantSpec(**base)
    records = []
    for index in range(10):
        arrival = float(index)
        records.append(RequestRecord(
            index=index, arrival=arrival, batch=spec.batch, chunk=index,
            worker=0, enqueued=arrival, started=arrival + wait,
            completed=arrival + wait + service,
            deadline=0.1 if miss else 1e9))
    return TenantStreamResult(
        spec=spec, log=RequestLog.from_records(records, records))


def make_report(*tenants, makespan: float = 100.0,
                bytes_from_storage: float = 0.0) -> StreamReport:
    return StreamReport(environment=Environment(), tenants=list(tenants),
                        makespan=makespan,
                        bytes_from_storage=bytes_from_storage)


class TestFindings:
    def test_empty_report_raises(self):
        with pytest.raises(DiagnosisError):
            diagnose_stream(make_report())

    def test_quiet_stream_has_no_findings(self):
        diagnosis = diagnose_stream(make_report(
            make_tenant(wait=0.01, service=0.02, miss=False)))
        assert diagnosis.findings == []
        assert "no latency pressure" in diagnosis.to_markdown()
        with pytest.raises(DiagnosisError):
            diagnosis.top_finding

    def test_service_bound_stream_suggests_shrinking_the_batch(self):
        tenant = make_tenant(wait=0.1, service=5.0, queue_bound=4)
        diagnosis = diagnose_stream(make_report(tenant))
        kinds = [finding.kind for finding in diagnosis.findings]
        assert kinds == ["shrink-batch"]
        finding = diagnosis.top_finding
        assert finding.tenant == "t0"
        # Halving the batch halves the (per-sample-dominated) service leg.
        assert finding.predicted_p99 == pytest.approx(0.1 + 5.0 / 2)
        assert "halve the batch from 8 to 4" in finding.detail

    def test_wait_bound_stream_suggests_raising_prefetch(self):
        tenant = make_tenant(wait=5.0, service=0.1, queue_bound=4)
        diagnosis = diagnose_stream(make_report(tenant))
        kinds = [finding.kind for finding in diagnosis.findings]
        assert kinds == ["raise-prefetch"]
        finding = diagnosis.top_finding
        assert finding.predicted_p99 == pytest.approx(0.1 + 5.0 / 2)
        assert "raise workers from 2 to 4" in finding.detail

    def test_unbounded_queue_adds_the_shed_rewrite(self):
        tenant = make_tenant(wait=5.0, service=0.1)   # queue_bound=0
        diagnosis = diagnose_stream(make_report(tenant))
        kinds = {finding.kind for finding in diagnosis.findings}
        assert kinds == {"raise-prefetch", "shed-admission"}

    def test_saturated_read_link_is_cluster_wide(self):
        environment = Environment()
        bytes_read = 0.9 * environment.storage.aggregate_bw * 100.0
        diagnosis = diagnose_stream(make_report(
            make_tenant(wait=0.01, service=0.02, miss=False),
            makespan=100.0, bytes_from_storage=bytes_read))
        finding = diagnosis.top_finding
        assert finding.kind == "read-link-saturation"
        assert finding.tenant is None
        assert "cluster" in finding.describe()

    def test_findings_rank_by_severity(self):
        noisy = make_tenant(wait=5.0, service=0.1)
        diagnosis = diagnose_stream(make_report(noisy))
        severities = [finding.severity for finding in diagnosis.findings]
        assert severities == sorted(severities, reverse=True)
        assert diagnosis.top_finding is diagnosis.findings[0]

    def test_below_threshold_misses_stay_silent(self):
        tenant = make_tenant(wait=5.0, service=0.1, miss=False)
        assert tenant.miss_fraction <= MISS_THRESHOLD
        assert diagnose_stream(make_report(tenant)).findings == []

    def test_markdown_carries_the_prediction_anchor(self):
        diagnosis = diagnose_stream(make_report(
            make_tenant(wait=0.1, service=5.0, queue_bound=4)))
        text = diagnosis.to_markdown()
        assert text.startswith("stream diagnosis:")
        assert "predicted p99 ~" in text
