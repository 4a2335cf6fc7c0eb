"""Tests for the multi-tenant service simulation itself."""

import pytest

from repro.backends import RunConfig, SimulatedBackend
from repro.core.report import service_summary, tenant_table
from repro.errors import ProfilingError
from repro.pipelines import get_pipeline
from repro.serve import (JobSpec, PreprocessingService, bursty_trace,
                         percentile, steady_trace)


def _spec(tenant="t0", pipeline="MP3", split="spectrogram-encoded",
          **kwargs):
    return JobSpec(tenant=tenant, pipeline=pipeline, split=split, **kwargs)


class TestPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_single_value_and_validation(self):
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ProfilingError):
            percentile([], 50)
        with pytest.raises(ProfilingError):
            percentile([1.0], 101)


class TestServiceBasics:
    def test_empty_trace_and_bad_slots(self):
        with pytest.raises(ProfilingError):
            PreprocessingService().run([])
        with pytest.raises(ProfilingError):
            PreprocessingService(slots=0)

    @pytest.mark.parametrize("slots", [float("nan"), True, -1])
    def test_nan_and_boolean_slots_rejected(self, slots):
        with pytest.raises(ProfilingError, match="execution slot"):
            PreprocessingService(slots=slots)

    def test_single_tenant_matches_the_single_job_backend(self):
        """The uncontended limit: a one-tenant service run is exactly a
        SimulatedBackend run under system caching."""
        spec = _spec(epochs=2)
        report = PreprocessingService(policy="fifo", slots=1).run([spec])
        plan = spec.resolve_plan()
        reference = SimulatedBackend().run(plan, spec.run_config())
        job = report.tenants[0]
        assert len(job.epochs) == 2
        for served, single in zip(job.epochs, reference.epochs):
            assert served.duration == pytest.approx(single.duration,
                                                    rel=1e-9)
        assert job.offline.duration == pytest.approx(
            reference.offline.duration, rel=1e-9)
        assert report.makespan == pytest.approx(
            reference.offline.duration
            + sum(epoch.duration for epoch in reference.epochs), rel=1e-9)

    @pytest.mark.parametrize("pipeline", ["MP3", "NILM"])
    def test_files_opened_counts_every_source_open(self, pipeline):
        """One cold epoch of a file-per-sample (MP3) or container (NILM)
        source opens each of its files once."""
        spec = _spec(pipeline=pipeline, split="unprocessed", epochs=1)
        report = PreprocessingService(policy="fifo", slots=1).run([spec])
        source = spec.resolve_plan().pipeline.source
        assert report.files_opened == source.n_files

    def test_runs_are_deterministic(self):
        trace = bursty_trace(tenants=6, seed=3)
        service = PreprocessingService(policy="cache-aware", slots=2)
        first = service.run(trace)
        second = PreprocessingService(policy="cache-aware",
                                      slots=2).run(trace)
        assert first.makespan == second.makespan
        assert (tenant_table(first).to_markdown()
                == tenant_table(second).to_markdown())
        assert service_summary(first) == service_summary(second)

    def test_queueing_with_one_slot(self):
        """Two t=0 arrivals on one slot: the second waits for the first."""
        trace = [_spec("a"), _spec("b")]
        report = PreprocessingService(policy="fifo", slots=1).run(trace)
        first, second = report.tenants
        assert first.queue_delay == 0.0
        assert second.queue_delay > 0.0
        assert second.queue_delay == pytest.approx(
            first.finished - second.arrival)

    def test_second_epoch_hits_the_shared_cache(self):
        report = PreprocessingService(slots=1).run([_spec(epochs=2)])
        cold, warm = report.tenants[0].epochs
        assert cold.bytes_from_cache == 0.0
        assert warm.bytes_from_storage == 0.0
        assert warm.duration < cold.duration


class TestArtifactSharing:
    def _same_artifact_trace(self):
        return [_spec("a"), _spec("b", arrival=1.0), _spec("c", arrival=2.0)]

    def test_cache_aware_dedupes_offline(self):
        report = PreprocessingService(policy="cache-aware", slots=3).run(
            self._same_artifact_trace())
        assert report.offline_runs == 1
        assert report.offline_deduped == 2
        shared = [job for job in report.tenants if job.offline_shared]
        assert len(shared) == 2
        assert all(job.offline is None for job in shared)

    def test_fifo_duplicates_offline(self):
        report = PreprocessingService(policy="fifo", slots=3).run(
            self._same_artifact_trace())
        assert report.offline_runs == 3
        assert report.offline_deduped == 0

    def test_shared_namespace_serves_followers_from_cache(self):
        """Under dedup, follower tenants read the leader's cached chunks."""
        aware = PreprocessingService(policy="cache-aware", slots=1).run(
            self._same_artifact_trace())
        followers = [job for job in aware.tenants if job.offline_shared]
        assert followers and all(job.cache_hit_ratio == pytest.approx(1.0)
                                 for job in followers)
        fifo = PreprocessingService(policy="fifo", slots=1).run(
            self._same_artifact_trace())
        # Private copies: every tenant's first epoch re-reads storage.
        for job in fifo.tenants:
            assert job.epochs[0].bytes_from_storage > 0.0


class TestFairShareScheduling:
    def _trace(self):
        """Tenant a floods the service; tenant b arrives behind it."""
        return [_spec("a", epochs=1),
                _spec("a", arrival=1.0, epochs=1),
                _spec("b", arrival=2.0, epochs=1)]

    def test_fair_share_lets_the_starved_tenant_jump_the_queue(self):
        fair = PreprocessingService(policy="fair-share", slots=1).run(
            self._trace())
        # Once a's first job finishes, b (zero consumed service) beats
        # a's second job despite the later arrival.
        assert fair.tenants[2].granted < fair.tenants[1].granted

    def test_fifo_serves_the_flood_first(self):
        fifo = PreprocessingService(policy="fifo", slots=1).run(
            self._trace())
        assert fifo.tenants[1].granted < fifo.tenants[2].granted


class TestSloTracking:
    def test_tight_slo_flags_contended_epochs(self):
        trace = [_spec("a", slo_stretch=1e-6),
                 _spec("b", slo_stretch=1e-6, arrival=1.0)]
        report = PreprocessingService(policy="fifo", slots=2).run(trace)
        assert report.total_slo_violations == 4  # every epoch of both

    def test_disabled_slo_counts_nothing(self):
        trace = [_spec("a", slo_stretch=None)]
        report = PreprocessingService(slots=1).run(trace)
        assert report.total_slo_violations == 0
        assert report.tenants[0].slo_seconds is None


class TestReportRendering:
    def test_tenant_table_and_summary(self):
        report = PreprocessingService(policy="fair-share", slots=2).run(
            steady_trace(tenants=3, seed=0))
        frame = tenant_table(report)
        assert len(frame) == 3
        assert {"tenant", "p50_epoch_s", "p99_epoch_s", "sps",
                "stall_frac", "cache_hit",
                "slo_viol"} <= set(frame.columns)
        summary = service_summary(report)
        assert "fair-share" in summary
        assert "3 tenant(s)" in summary

    def test_tenant_lookup(self):
        report = PreprocessingService(slots=1).run([_spec("solo")])
        assert report.tenant("solo").spec.tenant == "solo"
        with pytest.raises(ProfilingError):
            report.tenant("nobody")


class TestTenantTieBreak:
    """The explicit (timestamp, tenant id) completion tie-break."""

    def test_invalid_tie_break_rejected(self):
        with pytest.raises(ProfilingError, match="tie_break"):
            PreprocessingService(tie_break="random")

    def test_arrival_is_an_alias_for_the_default(self):
        """The library speaks the CLI/spec spelling: ``"arrival"`` is
        the default and the only other value is ``"tenant"``."""
        assert PreprocessingService(tie_break="arrival").tie_break \
            == "arrival"
        assert PreprocessingService().tie_break == "arrival"
        assert PreprocessingService(tie_break="tenant").tie_break \
            == "tenant"
        with pytest.raises(ProfilingError, match="tie_break"):
            PreprocessingService(tie_break=None)

    @staticmethod
    def _storage_tags(monkeypatch, run):
        """Tags of every storage-link transfer ``run()`` makes."""
        from repro.backends.base import Environment
        from repro.sim.bandwidth import SharedBandwidth
        prefix = Environment().storage.name + "-"
        tags = []
        transfer = SharedBandwidth.transfer

        def spy(link, nbytes, tag=""):
            if link.name.startswith(prefix):
                tags.append(tag)
            return transfer(link, nbytes, tag)

        with monkeypatch.context() as patch:
            patch.setattr(SharedBandwidth, "transfer", spy)
            run()
        assert tags, "the run moved no bytes over the storage links"
        return tags

    def test_only_the_tenant_tie_break_tags_storage_transfers(
            self, monkeypatch):
        """The link always orders simultaneous completions by (tag,
        admission); the tie-break is decided by the tags the service
        sends.  Under ``arrival`` serve and stream runs send only
        untagged storage transfers (so the link completes a batch in
        admission order); under ``tenant`` every storage transfer
        carries its job's tenant id."""
        from repro.stream import StreamingService, generate_stream
        trace = bursty_trace(tenants=3, seed=0, epochs=1)
        tenants = {spec.tenant for spec in trace}
        arrival = self._storage_tags(
            monkeypatch, lambda: PreprocessingService(slots=2).run(trace))
        assert set(arrival) == {""}
        streams = generate_stream(tenants=2, seed=0, requests=8)
        stream = self._storage_tags(
            monkeypatch,
            lambda: StreamingService().run(streams, seed=0))
        assert set(stream) == {""}
        tenant = self._storage_tags(
            monkeypatch, lambda: PreprocessingService(
                slots=2, tie_break="tenant").run(trace))
        assert set(tenant) == tenants
        assert len(tenant) == len(arrival)

    def test_tenant_tie_break_pins_knife_edge_runs(self):
        """Full co-tenancy on one hot raw artifact (the page-cache
        thrash regime): the tenant tie-break must give bit-identical
        reports across repeated runs."""
        def run():
            trace = bursty_trace(tenants=6, seed=0, burst_size=6,
                                 pipelines=("CV2-JPG",),
                                 hot_pipeline="CV2-JPG",
                                 hot_split="unprocessed", epochs=1)
            service = PreprocessingService(policy="fifo", slots=6,
                                           tie_break="tenant")
            return service.run(trace)

        first, second = run(), run()
        assert first.makespan == second.makespan
        assert first.events_processed == second.events_processed
        assert [job.epoch_durations for job in first.tenants] \
            == [job.epoch_durations for job in second.tenants]

    def test_tenant_tie_break_preserves_single_tenant_results(self):
        """With one tenant there are no cross-tenant ties to break, so
        the kernel option must not perturb the simulation at all."""
        trace = [_spec("solo")]
        default = PreprocessingService(slots=1).run(trace)
        tagged = PreprocessingService(slots=1, tie_break="tenant").run(trace)
        assert tagged.makespan == default.makespan
        assert tagged.events_processed == default.events_processed
        assert tagged.tenants[0].epoch_durations \
            == default.tenants[0].epoch_durations
