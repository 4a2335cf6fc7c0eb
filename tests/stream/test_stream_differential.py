"""The differential wall: a zero-jitter sharded stream IS an epoch.

Replaying a training epoch's job partition through the streaming
engine -- one request per job, pinned to its thread's worker, all
arriving at t=0, every chunk cold, deadlines off -- must reproduce the
single-tenant serve run's epoch timings to ~1e-12.  Epochs and
requests run the same per-batch body
(:func:`repro.backends.simulated.batch_body`), so this pins what the
stream adds around it: queueing, pinned dispatch to the epoch's
thread partition, and the per-tenant binding of the body.  Any drift
in hand-off order or accounting shows up here as a relative error far
above 1e-12.
"""

import pytest

from repro.serve import JobSpec, PreprocessingService
from repro.stream import (StreamTenantSpec, StreamingService,
                          epoch_request_plans)

#: (pipeline, strategy, reader width) corners: record-format artifacts
#: (deser path), raw file-per-sample sources (metadata open path), a
#: container source (pro-rated opens), single- and multi-reader.
CASES = [
    ("MP3", "decoded", 4),
    ("MP3", "spectrogram-encoded", 8),
    ("MP3", "unprocessed", 8),
    ("FLAC", "decoded", 6),
    ("CV2-JPG", "pixel-centered", 4),
    ("CV2-JPG", "unprocessed", 1),
    ("NILM", "aggregated", 8),
]


def serve_epoch(pipeline, split, threads):
    """The reference: one pre-materialised tenant, one epoch."""
    job = JobSpec(tenant="t0", pipeline=pipeline, split=split,
                  arrival=0.0, epochs=1, threads=threads,
                  slo_stretch=None)
    service = PreprocessingService(policy="fifo", slots=1,
                                   materialize_offline=False)
    report = service.run([job])
    return report, report.tenants[0].epochs[0]


def stream_replay(pipeline, split, threads):
    """The same epoch re-expressed as a pinned request stream."""
    spec = StreamTenantSpec(tenant="t0", pipeline=pipeline, split=split,
                            workers=threads, slo_stretch=None)
    plans = {"t0": epoch_request_plans(spec.resolve_plan(),
                                       JobSpec(tenant="t0",
                                               pipeline=pipeline,
                                               split=split,
                                               threads=threads,
                                               epochs=1).run_config())}
    return StreamingService().run([spec], plans=plans)


class TestEpochDifferential:
    @pytest.mark.parametrize("pipeline,split,threads", CASES)
    def test_stream_reproduces_epoch_timings(self, pipeline, split,
                                             threads):
        serve_report, epoch = serve_epoch(pipeline, split, threads)
        stream_report = stream_replay(pipeline, split, threads)
        assert stream_report.makespan == pytest.approx(epoch.duration,
                                                       rel=1e-12)

    @pytest.mark.parametrize("pipeline,split,threads", CASES)
    def test_stream_reproduces_epoch_bytes(self, pipeline, split,
                                           threads):
        _, epoch = serve_epoch(pipeline, split, threads)
        stream_report = stream_replay(pipeline, split, threads)
        tenant = stream_report.tenant("t0")
        assert tenant.bytes_from_storage == pytest.approx(
            epoch.bytes_from_storage, rel=1e-12)
        # Unique cold chunks: every lookup misses, as in epoch 0.
        assert tenant.bytes_from_cache == 0.0
        assert tenant.cache_hits == 0
        assert tenant.cache_misses == len(tenant.records)

    def test_every_request_served_by_its_pinned_worker(self):
        report = stream_replay("MP3", "decoded", 4)
        tenant = report.tenant("t0")
        assert all(record.worker == record.pinned
                   for record in tenant.records)
        assert all(record.completed is not None and not record.missed
                   for record in tenant.records)

    def test_metadata_accounting_matches(self):
        serve_report, _ = serve_epoch("MP3", "unprocessed", 8)
        stream_report = stream_replay("MP3", "unprocessed", 8)
        assert (stream_report.metadata_peak_in_use
                == serve_report.metadata_peak_in_use)


class TestPinnedPlanValidation:
    def test_pinned_plans_reject_admission_control(self):
        from repro.errors import ProfilingError
        spec = StreamTenantSpec(tenant="t0", pipeline="MP3",
                                split="decoded", workers=2,
                                queue_bound=4, shed=True)
        plans = {"t0": epoch_request_plans(
            spec.resolve_plan(),
            JobSpec(tenant="t0", pipeline="MP3", split="decoded",
                    threads=2, epochs=1).run_config())}
        with pytest.raises(ProfilingError):
            StreamingService().run([spec], plans=plans)

    def test_pinned_worker_ids_must_fit_width(self):
        from repro.errors import ProfilingError
        spec = StreamTenantSpec(tenant="t0", pipeline="MP3",
                                split="decoded", workers=2)
        plans = {"t0": epoch_request_plans(
            spec.resolve_plan(),
            JobSpec(tenant="t0", pipeline="MP3", split="decoded",
                    threads=8, epochs=1).run_config())}
        with pytest.raises(ProfilingError):
            StreamingService().run([spec], plans=plans)
