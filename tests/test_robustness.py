"""Failure injection and cross-config property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import RunConfig, SimulatedBackend
from repro.core.strategy import Strategy
from repro.errors import ReproError
from repro.formats.record import RecordCorruptionError
from repro.pipeline.dataset import PipelineDataset
from repro.pipeline.io import write_shards
from repro.pipelines import all_pipelines, get_pipeline

BACKEND = SimulatedBackend()


class TestFailureInjection:
    def test_corrupted_shard_detected_on_read(self, tmp_path):
        """Bit rot in a shard must fail loudly, not feed garbage."""
        paths = write_shards([b"payload" * 100] * 8, tmp_path, n_shards=2)
        raw = bytearray(paths[0].read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        paths[0].write_bytes(bytes(raw))
        dataset = PipelineDataset.from_record_shards(paths)
        with pytest.raises(RecordCorruptionError):
            dataset.materialize()

    def test_truncated_shard_detected(self, tmp_path):
        paths = write_shards([b"x" * 500] * 4, tmp_path, n_shards=1)
        data = paths[0].read_bytes()
        paths[0].write_bytes(data[:-100])
        with pytest.raises(RecordCorruptionError):
            PipelineDataset.from_record_shards(paths).materialize()

    def test_map_error_mid_pipeline_propagates_with_threads(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if x == 17:
                raise ValueError("poisoned sample")
            return x

        dataset = PipelineDataset.from_items(range(64)).map(
            flaky, num_parallel_calls=4).prefetch(2)
        with pytest.raises(ValueError, match="poisoned"):
            dataset.materialize()

    def test_all_library_errors_share_a_base(self):
        """Callers can catch ReproError for anything this library raises."""
        from repro import errors
        for name in ("SimulationError", "PipelineError", "ProfilingError",
                     "CodecError", "FrameError", "StorageError"):
            assert issubclass(getattr(errors, name), ReproError)


class TestBackendProperties:
    @settings(max_examples=10, deadline=None)
    @given(threads=st.sampled_from([1, 2, 4, 8, 16]),
           compression=st.sampled_from([None, "GZIP", "ZLIB"]),
           split=st.sampled_from(["decoded", "spectrogram-encoded"]))
    def test_runs_always_account_every_sample(self, threads, compression,
                                              split):
        plan = get_pipeline("MP3").split_at(split)
        result = BACKEND.run(plan, RunConfig(threads=threads,
                                             compression=compression))
        assert result.epochs[0].samples == plan.pipeline.sample_count
        assert result.throughput > 0
        assert result.storage_bytes > 0

    @settings(max_examples=8, deadline=None)
    @given(threads=st.sampled_from([1, 2, 4, 8]))
    def test_storage_independent_of_threads(self, threads):
        plan = get_pipeline("NILM").split_at("aggregated")
        result = BACKEND.run(plan, RunConfig(threads=threads))
        expected = plan.materialized.total_bytes(plan.pipeline.sample_count)
        assert result.storage_bytes == pytest.approx(expected, rel=1e-6)

    def test_threads_never_catastrophically_hurt(self):
        """Even GIL-bound pipelines lose at most ~20% from extra threads
        (convoy overhead), never an order of magnitude."""
        for name in ("NLP", "NILM"):
            pipeline = get_pipeline(name)
            plan = pipeline.split_at("decoded")
            single = BACKEND.run(plan, RunConfig(threads=1)).throughput
            eight = BACKEND.run(plan, RunConfig(threads=8)).throughput
            assert eight > 0.7 * single

    def test_compression_never_changes_sample_count_or_epochs(self):
        plan = get_pipeline("CV").split_at("pixel-centered")
        plain = BACKEND.run(plan, RunConfig(epochs=2, cache_mode="system"))
        gzip = BACKEND.run(plan, RunConfig(epochs=2, cache_mode="system",
                                           compression="GZIP"))
        assert len(plain.epochs) == len(gzip.epochs) == 2
        assert plain.epochs[0].samples == gzip.epochs[0].samples

    def test_strategy_uids_unique_across_grid(self):
        from repro.core.strategy import enumerate_strategies
        uids = set()
        for pipeline in all_pipelines():
            for strategy in enumerate_strategies(
                    pipeline, threads=(1, 8),
                    compressions=(None, "GZIP"),
                    cache_modes=("none", "system")):
                assert strategy.uid not in uids
                uids.add(strategy.uid)

    def test_offline_time_scales_with_sample_count(self):
        plan_full = get_pipeline("MP3").split_at("decoded")
        full = BACKEND.run(plan_full, RunConfig())
        small_pipeline = get_pipeline("MP3").with_sample_count(1_300)
        small = BACKEND.run(small_pipeline.split_at("decoded"), RunConfig())
        ratio = full.preprocessing_seconds / small.preprocessing_seconds
        assert ratio == pytest.approx(10.0, rel=0.2)


def _job(**field):
    from repro.serve.jobs import JobSpec
    return JobSpec("t0", "MP3", "decoded", **field)


def _link(**capacity):
    from repro.sim.bandwidth import SharedBandwidth
    from repro.sim.events import Simulation
    return SharedBandwidth(Simulation(), **capacity)


def _page_cache(capacity):
    from repro.sim.pagecache import PageCache
    return PageCache(capacity)


@pytest.mark.parametrize("value", [float("nan"), True, -1.0],
                         ids=["nan", "bool", "negative"])
@pytest.mark.parametrize("build", [
    lambda value: _job(arrival=value),
    lambda value: _job(priority=value),
    lambda value: _job(slo_stretch=value),
    lambda value: _job(crash_epoch=value),
    lambda value: _job(crash_attempts=value),
    _page_cache,
    lambda value: _link(aggregate_bw=value),
    lambda value: _link(aggregate_bw=1.0, per_stream_bw=value),
    lambda value: _link(aggregate_bw=1.0).set_capacity(aggregate_bw=value),
    lambda value: _link(aggregate_bw=1.0).set_capacity(per_stream_bw=value),
], ids=["job.arrival", "job.priority", "job.slo_stretch", "job.crash_epoch",
        "job.crash_attempts", "page_cache", "link.aggregate_bw",
        "link.per_stream_bw", "set_capacity.aggregate_bw",
        "set_capacity.per_stream_bw"])
def test_constructor_guards_reject_nan_bools_and_negatives(build, value):
    """Guards are written ``not x >= c``, which NaN fails, and reject a
    bool before comparing it as a number."""
    with pytest.raises(ReproError):
        build(value)
