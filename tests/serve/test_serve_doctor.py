"""Tests for cluster-level service diagnosis."""

import pytest

from repro.errors import DiagnosisError
from repro.serve import (JobSpec, PreprocessingService, bursty_trace,
                         diagnose_service)
from repro.serve.doctor import Diagnosis, cluster_fractions
from repro.serve.service import ServiceReport


@pytest.fixture(scope="module")
def contended_reports():
    """One bursty 6-tenant trace under fifo and cache-aware."""
    trace = bursty_trace(tenants=6, seed=0)
    return {
        policy: PreprocessingService(policy=policy, slots=2).run(trace)
        for policy in ("fifo", "cache-aware")
    }


class TestClusterFractions:
    def test_fractions_sum_to_one(self, contended_reports):
        for report in contended_reports.values():
            fractions = cluster_fractions(report)
            assert set(fractions) == {"cpu", "storage", "decode", "stall"}
            assert all(value >= 0 for value in fractions.values())
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_traceless_report_is_all_stall(self):
        report = ServiceReport(policy="fifo", slots=1, environment=None)
        assert cluster_fractions(report)["stall"] == 1.0


class TestDiagnoseService:
    def test_findings_ranked_by_severity(self, contended_reports):
        diagnosis = diagnose_service(contended_reports["fifo"])
        assert isinstance(diagnosis, Diagnosis)
        severities = [finding.severity for finding in diagnosis.findings]
        assert severities == sorted(severities, reverse=True)
        assert diagnosis.top_finding is diagnosis.findings[0]

    def test_duplicate_offline_flagged_only_without_dedup(
            self, contended_reports):
        fifo_kinds = {finding.kind for finding in diagnose_service(
            contended_reports["fifo"]).findings}
        aware_kinds = {finding.kind for finding in diagnose_service(
            contended_reports["cache-aware"]).findings}
        assert "duplicate-offline" in fifo_kinds
        assert "duplicate-offline" not in aware_kinds

    def test_markdown_contains_policy_and_findings(self, contended_reports):
        diagnosis = diagnose_service(contended_reports["fifo"])
        text = diagnosis.to_markdown()
        assert "cluster diagnosis [fifo]" in text
        assert "bound on" in text
        for rank in range(1, len(diagnosis.findings) + 1):
            assert f"{rank}." in text

    def test_empty_report_raises(self):
        with pytest.raises(DiagnosisError):
            diagnose_service(ServiceReport(policy="fifo", slots=1,
                                           environment=None))

    def test_queue_pressure_on_starved_slots(self):
        """Many simultaneous arrivals on one slot must surface queueing."""
        trace = [JobSpec(tenant=f"t{i}", pipeline="MP3",
                         split="spectrogram-encoded", epochs=1)
                 for i in range(4)]
        report = PreprocessingService(policy="fifo", slots=1).run(trace)
        kinds = {finding.kind
                 for finding in diagnose_service(report).findings}
        assert "queue-pressure" in kinds


class TestFaultFindings:
    """Chaos-engine windows surface as ranked findings with the
    predicted epoch-time stretch anchored to the injected magnitude."""

    @pytest.fixture(scope="class")
    def chaos_report(self):
        from repro.faults import (Brownout, DeviceSlowdown, FaultPlan,
                                  StragglerWindow)
        plan = FaultPlan(
            stragglers=(StragglerWindow(start=50.0, duration=400.0,
                                        cores=6),),
            slowdowns=(DeviceSlowdown(start=100.0, duration=300.0,
                                      factor=3.0),),
            brownouts=(Brownout(start=200.0, duration=250.0,
                                factor=4.0),))
        trace = bursty_trace(tenants=6, seed=0)
        return PreprocessingService(policy="fifo", slots=2,
                                    faults=plan).run(trace)

    def test_each_window_kind_surfaces(self, chaos_report):
        kinds = {finding.kind
                 for finding in diagnose_service(chaos_report).findings}
        assert {"brownout-detected", "straggler-detected",
                "device-degraded"} <= kinds

    def test_predicted_impact_anchors_to_injected_magnitude(
            self, chaos_report):
        findings = {finding.kind: finding
                    for finding in diagnose_service(chaos_report).findings}
        # Brownout: 1/4 capacity -> storage-bound epochs stretch 4x.
        assert "stretch up to 4.0x" in findings["brownout-detected"].detail
        # Straggler: 6 of 8 cores parked -> CPU-bound epochs stretch 4x.
        assert "6 of 8 cores" in findings["straggler-detected"].detail
        assert "stretch up to 4.00x" in \
            findings["straggler-detected"].detail
        # Slowdown: read link at 1/3 -> I/O-bound epochs stretch 3x.
        assert "stretch up to 3.0x" in findings["device-degraded"].detail

    def test_fault_free_diagnosis_has_no_fault_findings(
            self, contended_reports):
        for report in contended_reports.values():
            kinds = {finding.kind
                     for finding in diagnose_service(report).findings}
            assert not kinds & {"brownout-detected", "straggler-detected",
                                "device-degraded"}
