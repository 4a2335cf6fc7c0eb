"""Behavioural tests for the streaming service engine."""

import pytest

from repro.errors import ProfilingError
from repro.stream import (RequestPlan, StreamTenantSpec, StreamingService)


def make_spec(**overrides) -> StreamTenantSpec:
    base = dict(tenant="t0", pipeline="MP3", split="decoded",
                arrival="burst", rate=10.0, requests=12, batch=4,
                workers=1)
    base.update(overrides)
    return StreamTenantSpec(**base)


def run_one(spec, **kwargs):
    report = StreamingService().run([spec], **kwargs)
    return report, report.tenant(spec.tenant)


class TestValidation:
    def test_empty_tenant_set(self):
        with pytest.raises(ProfilingError):
            StreamingService().run([])

    def test_duplicate_tenants(self):
        with pytest.raises(ProfilingError):
            StreamingService().run([make_spec(), make_spec()])

    def test_unknown_tenant_lookup(self):
        report, _ = run_one(make_spec())
        with pytest.raises(ProfilingError):
            report.tenant("nobody")


class TestBackpressure:
    def test_bounded_queue_never_exceeds_the_bound(self):
        _, tenant = run_one(make_spec(queue_bound=2, rate=50.0,
                                      requests=20))
        assert tenant.max_queue_depth <= 2
        assert tenant.shed_count == 0
        assert len(tenant.completed) == 20

    def test_blocking_delays_admission_but_loses_nothing(self):
        """Backpressure shows up as enqueued > intended arrival."""
        _, tenant = run_one(make_spec(queue_bound=1, rate=100.0,
                                      requests=16))
        assert len(tenant.completed) == 16
        assert any(record.enqueued > record.arrival + 1e-9
                   for record in tenant.records)

    def test_shedding_drops_overflow_and_counts_misses(self):
        _, tenant = run_one(make_spec(queue_bound=1, shed=True,
                                      rate=200.0, requests=24))
        assert tenant.shed_count > 0
        assert tenant.shed_count + len(tenant.completed) == 24
        assert tenant.miss_fraction >= tenant.shed_count / 24
        for record in tenant.records:
            if record.shed:
                assert record.completed is None
                assert record.missed

    def test_unbounded_queue_grows_past_any_bound(self):
        _, tenant = run_one(make_spec(queue_bound=0, rate=200.0,
                                      requests=24))
        assert tenant.max_queue_depth > 2
        assert len(tenant.completed) == 24


class TestCacheBehaviour:
    def test_rereading_a_chunk_hits_the_page_cache(self):
        spec = make_spec(requests=6)
        plans = {spec.tenant: tuple(
            RequestPlan(index=i, arrival=0.0, batch=4, chunk=0)
            for i in range(6))}
        _, tenant = run_one(spec, plans=plans)
        assert tenant.cache_misses == 1
        assert tenant.cache_hits == 5
        assert tenant.bytes_from_cache > 0
        assert 0.0 < tenant.cache_hit_ratio < 1.0

    def test_distinct_chunks_all_miss(self):
        spec = make_spec(requests=6)
        plans = {spec.tenant: tuple(
            RequestPlan(index=i, arrival=0.0, batch=4, chunk=i)
            for i in range(6))}
        _, tenant = run_one(spec, plans=plans)
        assert tenant.cache_hits == 0
        assert tenant.cache_misses == 6
        assert tenant.bytes_from_cache == 0.0


class TestDeadlines:
    def test_baseline_and_deadlines_are_set(self):
        _, tenant = run_one(make_spec(slo_stretch=2.0))
        assert tenant.baseline_batch_seconds > 0
        assert tenant.deadline_seconds == pytest.approx(
            2.0 * tenant.baseline_batch_seconds)
        per_sample = tenant.baseline_batch_seconds / tenant.spec.batch
        for record in tenant.records:
            assert record.deadline == pytest.approx(
                2.0 * record.batch * per_sample)

    def test_none_stretch_disables_deadlines(self):
        _, tenant = run_one(make_spec(slo_stretch=None))
        assert tenant.deadline_seconds is None
        assert all(record.deadline is None for record in tenant.records)
        assert tenant.miss_fraction == 0.0

    def test_tight_slo_forces_misses(self):
        _, generous = run_one(make_spec(slo_stretch=1e6))
        assert generous.miss_fraction == 0.0
        _, tight = run_one(make_spec(slo_stretch=1e-6))
        assert tight.miss_fraction == 1.0


class TestReportAggregates:
    def test_totals_partition_the_requests(self):
        streams = [make_spec(tenant="a", requests=10),
                   make_spec(tenant="b", requests=6, queue_bound=1,
                             shed=True, rate=200.0)]
        report = StreamingService().run(streams)
        assert report.total_requests == 16
        assert report.total_completed + report.total_shed == 16
        assert report.events_processed > 0
        assert report.makespan > 0
        assert report.makespan == max(tenant.makespan
                                      for tenant in report.tenants)
        assert report.bytes_from_storage == sum(
            tenant.bytes_from_storage for tenant in report.tenants)

    @pytest.mark.parametrize("overrides", [
        dict(queue_bound=1, shed=True, rate=200.0, requests=24),
        dict(slo_stretch=None), dict(slo_stretch=1.5, workers=2)])
    def test_tally_matches_the_per_record_properties(self, overrides):
        """The one-pass tally is exactly the per-record arithmetic."""
        streams = [make_spec(tenant="a", **overrides),
                   make_spec(tenant="b", requests=7)]
        report = StreamingService().run(streams)
        for tenant in report.tenants:
            done = [record for record in tenant.records
                    if record.completed is not None]
            assert [tenant.log.record(row)
                    for row in tenant.tally.completed] == done
            assert list(tenant.tally.latencies) == [record.latency
                                                    for record in done]
            assert tenant.tally.missed == sum(record.missed
                                              for record in tenant.records)
        missed = sum(record.missed for tenant in report.tenants
                     for record in tenant.records)
        assert report.miss_fraction == missed / report.total_requests

    def test_report_p99_is_selected_once_per_render(self, monkeypatch):
        """The summary line and the doctor both read the report's p99;
        the selection over every tenant's latencies runs once."""
        from repro.core.report import stream_summary
        from repro.stream import diagnose_stream
        from repro.stream import report as report_module

        report = StreamingService().run(
            [make_spec(tenant="a", requests=10),
             make_spec(tenant="b", requests=6)])
        joined = sum(len(tenant.latencies) for tenant in report.tenants)
        assert joined > max(len(tenant.latencies)
                            for tenant in report.tenants)
        sizes = []
        real = report_module.percentile

        def counting(values, q):
            sizes.append(len(values))
            return real(values, q)

        monkeypatch.setattr(report_module, "percentile", counting)
        assert stream_summary(report)
        assert diagnose_stream(report).summary["p99_latency"] \
            == report.p99_latency
        assert sizes.count(joined) == 1

    def test_workers_raise_throughput(self):
        _, narrow = run_one(make_spec(workers=1, requests=16, rate=100.0))
        _, wide = run_one(make_spec(workers=4, requests=16, rate=100.0))
        assert wide.makespan < narrow.makespan
        assert wide.throughput_rps > narrow.throughput_rps

    def test_out_of_order_completions_are_counted(self):
        """With multiple workers and uneven batch sizes, a later small
        request can overtake an earlier large one."""
        spec = make_spec(workers=2, requests=4)
        plans = {spec.tenant: (
            RequestPlan(index=0, arrival=0.0, batch=64, chunk=0),
            RequestPlan(index=1, arrival=0.0, batch=1, chunk=1),
            RequestPlan(index=2, arrival=0.0, batch=1, chunk=2),
            RequestPlan(index=3, arrival=0.0, batch=1, chunk=3))}
        _, tenant = run_one(spec, plans=plans)
        assert tenant.out_of_order > 0
        completions = [record.completed for record in tenant.completions]
        assert completions == sorted(completions)
