"""Tests for the sweep engine: executor resolution, parallel-vs-serial
equivalence, cache integration, events and profiler delegation."""

import pytest

from repro.backends import RunConfig, SimulatedBackend
from repro.core.analysis import StrategyAnalysis
from repro.core.autotune import AutoTuner
from repro.core.profiler import StrategyProfiler
from repro.core.strategy import Strategy, enumerate_strategies
from repro.errors import SweepError
from repro.exec import (ProcessExecutor, ProfileCache, SerialExecutor,
                        SweepEngine, ThreadExecutor, resolve_executor)
from repro.exec.events import CACHE_HIT, JOB_DONE, SWEEP_END, SWEEP_START
from repro.pipelines import get_pipeline
from repro.pipelines.registry import PAPER_PIPELINES, all_pipelines

BACKEND = SimulatedBackend()


def _records(profiles):
    return [profile.to_record() for profile in profiles]


class TestExecutorResolution:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_jobs_count_maps_to_process_pool(self):
        executor = resolve_executor(3)
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == 3

    def test_named_pools(self):
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_instance_passthrough(self):
        executor = ThreadExecutor(2)
        assert resolve_executor(executor) is executor

    def test_invalid_specs(self):
        for spec in (0, -1, "warp-drive", 2.5):
            with pytest.raises(SweepError):
                resolve_executor(spec)

    def test_map_preserves_order(self):
        for executor in (SerialExecutor(), ThreadExecutor(4),
                         ProcessExecutor(4)):
            assert executor.map(abs, [-3, -1, -2]) == [3, 1, 2]


class TestParallelEquivalence:
    @pytest.mark.parametrize("pipeline", PAPER_PIPELINES)
    def test_process_pool_matches_serial(self, pipeline):
        serial = SweepEngine(BACKEND).profile_pipeline(
            get_pipeline(pipeline))
        parallel = SweepEngine(BACKEND, executor=2).profile_pipeline(
            get_pipeline(pipeline))
        assert _records(parallel) == _records(serial)

    def test_thread_pool_matches_serial(self):
        strategies = enumerate_strategies(get_pipeline("FLAC"),
                                          threads=(4, 8))
        serial = SweepEngine(BACKEND).profile(strategies)
        threaded = SweepEngine(BACKEND, executor="thread").profile(
            strategies)
        assert _records(threaded) == _records(serial)

    def test_sweep_matches_per_pipeline_profiling(self):
        pipelines = [get_pipeline("MP3"), get_pipeline("NILM")]
        result = SweepEngine(BACKEND, executor=2).sweep(pipelines)
        assert result.pipelines == ["MP3", "NILM"]
        for pipeline in pipelines:
            expected = SweepEngine(BACKEND).profile_pipeline(pipeline)
            assert (_records(result.profiles[pipeline.name])
                    == _records(expected))

    def test_analysis_summaries_byte_identical(self):
        serial = SweepEngine(BACKEND).sweep([get_pipeline("FLAC")])
        parallel = SweepEngine(BACKEND, executor=4).sweep(
            [get_pipeline("FLAC")])
        assert (StrategyAnalysis(parallel.profiles["FLAC"]).summary()
                == StrategyAnalysis(serial.profiles["FLAC"]).summary())

    def test_duplicate_pipelines_aggregate(self):
        result = SweepEngine(BACKEND).sweep(
            [get_pipeline("MP3"), get_pipeline("MP3")])
        assert result.pipelines == ["MP3"]
        assert len(result.profiles["MP3"]) == 6
        assert result.job_count == 6

    def test_mutated_pipeline_falls_back_to_threads(self):
        """Unpicklable, non-registry pipelines must still profile
        correctly under a process-pool request."""
        mutated = get_pipeline("MP3").with_representation(
            "decoded", bytes_per_sample=123456.0)
        serial = SweepEngine(BACKEND).profile_pipeline(mutated)
        parallel = SweepEngine(BACKEND, executor=2).profile_pipeline(
            mutated)
        assert _records(parallel) == _records(serial)


class TestEngineCache:
    def test_second_profile_hits(self):
        cache = ProfileCache()
        engine = SweepEngine(BACKEND, cache=cache)
        first = engine.profile_pipeline(get_pipeline("MP3"))
        assert cache.stats.hits == 0
        second = engine.profile_pipeline(get_pipeline("MP3"))
        assert cache.stats.hits == len(second)
        assert _records(second) == _records(first)

    def test_hit_rate_at_least_90_percent_on_rerun(self, tmp_path):
        """The acceptance criterion: a second full-catalog sweep against
        a warm cache is served (almost) entirely from it."""
        cold = SweepEngine(BACKEND, executor=2,
                           cache=ProfileCache(tmp_path))
        cold.sweep(all_pipelines())
        warm_cache = ProfileCache(tmp_path)
        SweepEngine(BACKEND, executor=2, cache=warm_cache).sweep(
            all_pipelines())
        assert warm_cache.stats.hit_rate >= 0.9

    def test_cached_results_survive_disk_round_trip(self, tmp_path):
        first = SweepEngine(BACKEND, cache=ProfileCache(tmp_path))
        reference = first.profile_pipeline(get_pipeline("NILM"))
        warm_cache = ProfileCache(tmp_path)
        warm = SweepEngine(BACKEND, cache=warm_cache)
        rerun = warm.profile_pipeline(get_pipeline("NILM"))
        assert warm_cache.stats.hits == len(rerun)
        assert _records(rerun) == _records(reference)

    def test_environment_change_invalidates(self):
        from repro.backends import Environment
        from repro.sim.storage import DEVICE_PROFILES
        cache = ProfileCache()
        SweepEngine(BACKEND, cache=cache).profile_pipeline(
            get_pipeline("MP3"))
        ssd = SimulatedBackend(
            Environment(storage=DEVICE_PROFILES["ceph-ssd"]))
        SweepEngine(ssd, cache=cache).profile_pipeline(get_pipeline("MP3"))
        assert cache.stats.hits == 0

    def test_runs_total_change_invalidates(self):
        cache = ProfileCache()
        SweepEngine(BACKEND, cache=cache, runs_total=1).profile_pipeline(
            get_pipeline("MP3"))
        SweepEngine(BACKEND, cache=cache, runs_total=2).profile_pipeline(
            get_pipeline("MP3"))
        assert cache.stats.hits == 0


class TestEvents:
    def test_event_stream_shape(self):
        events = []
        engine = SweepEngine(BACKEND, cache=ProfileCache())
        engine.add_listener(events.append)
        engine.profile_pipeline(get_pipeline("MP3"))
        kinds = [event.kind for event in events]
        assert kinds[0] == SWEEP_START
        assert kinds[-1] == SWEEP_END
        assert kinds.count(JOB_DONE) == 3

        events.clear()
        engine.profile_pipeline(get_pipeline("MP3"))
        kinds = [event.kind for event in events]
        assert kinds.count(CACHE_HIT) == 3
        assert kinds.count(JOB_DONE) == 0

    def test_events_carry_identity(self):
        events = []
        engine = SweepEngine(BACKEND)
        engine.add_listener(events.append)
        engine.profile_pipeline(get_pipeline("FLAC"))
        done = [event for event in events if event.kind == JOB_DONE]
        assert {event.pipeline for event in done} == {"FLAC"}
        assert all(event.total == 3 for event in done)
        assert [event.index for event in done] == [1, 2, 3]


class TestProfilerDelegation:
    def test_profiler_uses_engine(self):
        profiler = StrategyProfiler(BACKEND, jobs=2)
        assert isinstance(profiler.engine, SweepEngine)
        profiles = profiler.profile_pipeline(get_pipeline("MP3"))
        reference = StrategyProfiler(BACKEND).profile_pipeline(
            get_pipeline("MP3"))
        assert _records(profiles) == _records(reference)

    def test_profiler_cache_shared_across_calls(self):
        cache = ProfileCache()
        profiler = StrategyProfiler(BACKEND, cache=cache)
        profiler.profile_pipeline(get_pipeline("MP3"))
        profiler.profile_pipeline(get_pipeline("MP3"))
        assert cache.stats.hits == 3

    def test_autotuner_threads_engine_options(self):
        cache = ProfileCache()
        tuner = AutoTuner(BACKEND, jobs=2, cache=cache)
        report = tuner.tune(get_pipeline("NILM"))
        assert cache.stats.stores == report.screened
        rerun = AutoTuner(BACKEND, cache=cache).tune(get_pipeline("NILM"))
        assert cache.stats.hits == rerun.screened

    def test_invalid_runs_total(self):
        with pytest.raises(SweepError):
            SweepEngine(BACKEND, runs_total=0)

    def test_sample_count_still_subsets(self):
        profiler = StrategyProfiler(BACKEND, jobs=2)
        strategy = Strategy(get_pipeline("CV").split_at("resized"),
                            RunConfig())
        subset = profiler.profile_strategy(strategy, sample_count=8000)
        assert subset.result.epochs[0].samples == 8000
