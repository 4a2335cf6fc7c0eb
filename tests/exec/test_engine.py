"""Tests for the sweep engine: jobs validation and pool choice,
parallel-vs-serial equivalence, cache integration, events and the
callers that profile through it."""

import concurrent.futures

import pytest

from repro.backends import RunConfig, SimulatedBackend
from repro.core.analysis import StrategyAnalysis
from repro.core.autotune import AutoTuner
from repro.core.strategy import Strategy
from repro.diagnosis.doctor import BottleneckDoctor
from repro.errors import SweepError
from repro.exec import ProfileCache, SweepEngine
from repro.exec.events import CACHE_HIT, JOB_DONE, SWEEP_END, SWEEP_START
from repro.pipelines import get_pipeline
from repro.pipelines.registry import PAPER_PIPELINES, all_pipelines

BACKEND = SimulatedBackend()


def _records(profiles):
    return [profile.to_record() for profile in profiles]


@pytest.fixture
def pools(monkeypatch):
    """Spy on pool construction: records ``(pool kind, max_workers)``
    for every pool the engine builds."""
    built = []

    def spy(kind, real):
        def build(max_workers):
            built.append((kind, max_workers))
            return real(max_workers=max_workers)
        return build

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        spy("process", concurrent.futures.ProcessPoolExecutor))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        spy("thread", concurrent.futures.ThreadPoolExecutor))
    return built


class TestExecutorResolution:
    def test_default_is_serial(self, pools):
        engine = SweepEngine(BACKEND)
        assert engine.jobs == 1
        engine.profile_pipeline(get_pipeline("MP3"))
        SweepEngine(BACKEND, jobs=1).profile_pipeline(get_pipeline("MP3"))
        assert pools == []

    def test_jobs_count_maps_to_process_pool(self, pools):
        """A registry pipeline at ``jobs=2`` ships by name to a process
        pool: the twin of the thread fallback below."""
        profiles = SweepEngine(BACKEND, jobs=2).profile_pipeline(
            get_pipeline("MP3"))
        assert pools == [("process", 2)]
        assert (_records(profiles)
                == _records(SweepEngine(BACKEND).profile_pipeline(
                    get_pipeline("MP3"))))

    def test_invalid_specs(self):
        for jobs in (0, -1, True, 2.5, "thread", None):
            with pytest.raises(SweepError):
                SweepEngine(BACKEND, jobs=jobs)


class TestParallelEquivalence:
    @pytest.mark.parametrize("pipeline", PAPER_PIPELINES)
    def test_process_pool_matches_serial(self, pipeline):
        serial = SweepEngine(BACKEND).profile_pipeline(
            get_pipeline(pipeline))
        parallel = SweepEngine(BACKEND, jobs=2).profile_pipeline(
            get_pipeline(pipeline))
        assert _records(parallel) == _records(serial)

    def test_sweep_matches_per_pipeline_profiling(self):
        pipelines = [get_pipeline("MP3"), get_pipeline("NILM")]
        result = SweepEngine(BACKEND, jobs=2).sweep(pipelines)
        assert result.pipelines == ["MP3", "NILM"]
        for pipeline in pipelines:
            expected = SweepEngine(BACKEND).profile_pipeline(pipeline)
            assert (_records(result.profiles[pipeline.name])
                    == _records(expected))

    def test_analysis_summaries_byte_identical(self):
        serial = SweepEngine(BACKEND).sweep([get_pipeline("FLAC")])
        parallel = SweepEngine(BACKEND, jobs=4).sweep(
            [get_pipeline("FLAC")])
        assert (StrategyAnalysis(parallel.profiles["FLAC"]).summary()
                == StrategyAnalysis(serial.profiles["FLAC"]).summary())

    def test_duplicate_pipelines_aggregate(self):
        result = SweepEngine(BACKEND).sweep(
            [get_pipeline("MP3"), get_pipeline("MP3")])
        assert result.pipelines == ["MP3"]
        assert len(result.profiles["MP3"]) == 6
        assert result.job_count == 6

    def test_mutated_pipeline_falls_back_to_threads(self, pools):
        """Unpicklable, non-registry pipelines must still profile
        correctly under a process-pool request -- on a thread pool."""
        mutated = get_pipeline("MP3").with_representation(
            "decoded", bytes_per_sample=123456.0)
        serial = SweepEngine(BACKEND).profile_pipeline(mutated)
        parallel = SweepEngine(BACKEND, jobs=2).profile_pipeline(mutated)
        assert pools == [("thread", 2)]
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
        cold = SweepEngine(BACKEND, jobs=2,
                           cache=ProfileCache(tmp_path))
        cold.sweep(all_pipelines())
        warm_cache = ProfileCache(tmp_path)
        SweepEngine(BACKEND, jobs=2, cache=warm_cache).sweep(
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
    """The profiling front doors above the engine hand it their knobs."""

    def test_profiler_uses_engine(self):
        tuner = AutoTuner(BACKEND, jobs=2, runs_total=2)
        assert isinstance(tuner.engine, SweepEngine)
        assert (tuner.engine.jobs, tuner.engine.runs_total) == (2, 2)
        doctor = BottleneckDoctor(BACKEND, jobs=2)
        assert isinstance(doctor.engine, SweepEngine)
        assert doctor.engine.jobs == 2

    def test_profiler_cache_shared_across_calls(self):
        cache = ProfileCache()
        engine = SweepEngine(BACKEND, cache=cache)
        engine.profile_pipeline(get_pipeline("MP3"))
        engine.profile_pipeline(get_pipeline("MP3"))
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
        engine = SweepEngine(BACKEND, jobs=2)
        strategy = Strategy(get_pipeline("CV").split_at("resized"),
                            RunConfig())
        subset = engine.profile([strategy], sample_count=8000)[0]
        assert subset.result.epochs[0].samples == 8000
