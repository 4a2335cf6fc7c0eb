"""Tests for the profile cache: hit/miss accounting, persistence,
round-trip fidelity and fingerprint invalidation."""

import pytest

from repro.backends import Environment, RunConfig, SimulatedBackend
from repro.core.profiler import StrategyProfile
from repro.core.strategy import Strategy
from repro.exec.cache import ProfileCache, decode_run, encode_run
from repro.exec.engine import SweepEngine
from repro.exec.fingerprint import job_fingerprint
from repro.pipelines import get_pipeline
from repro.sim.storage import DEVICE_PROFILES

BACKEND = SimulatedBackend()


def _profile(pipeline="MP3", split="decoded", **config) -> StrategyProfile:
    strategy = Strategy(get_pipeline(pipeline).split_at(split),
                        RunConfig(**config))
    return SweepEngine(BACKEND).profile([strategy])[0]


class TestRoundTrip:
    def test_encode_decode_preserves_metrics(self):
        profile = _profile(epochs=2, compression="GZIP",
                           cache_mode="system")
        run = profile.result
        clone = decode_run(encode_run(run))
        assert clone.throughput == run.throughput
        assert clone.cached_throughput == run.cached_throughput
        assert clone.preprocessing_seconds == run.preprocessing_seconds
        assert clone.storage_bytes == run.storage_bytes
        assert clone.config == run.config
        assert clone.environment == run.environment
        assert len(clone.epochs) == len(run.epochs)
        assert clone.epochs[-1].cache_hit_rate \
            == run.epochs[-1].cache_hit_rate

    def test_record_identical_after_round_trip(self):
        profile = _profile()
        clone = StrategyProfile(
            strategy=profile.strategy,
            runs=[decode_run(encode_run(run)) for run in profile.runs])
        assert clone.to_record() == profile.to_record()


class TestMemoryCache:
    def test_miss_then_hit(self):
        cache = ProfileCache()
        profile = _profile()
        key = job_fingerprint(profile.strategy, Environment(), BACKEND)
        assert cache.lookup(key, profile.strategy) is None
        cache.store(key, profile)
        hit = cache.lookup(key, profile.strategy)
        assert hit is not None
        assert hit.to_record() == profile.to_record()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_environment_fingerprint_invalidates(self):
        """A cache filled on HDD must miss when profiling targets SSD."""
        cache = ProfileCache()
        profile = _profile()
        hdd_key = job_fingerprint(profile.strategy, Environment(), BACKEND)
        cache.store(hdd_key, profile)
        ssd_env = Environment(storage=DEVICE_PROFILES["ceph-ssd"])
        ssd_key = job_fingerprint(profile.strategy, ssd_env, BACKEND)
        assert ssd_key != hdd_key
        assert cache.lookup(ssd_key, profile.strategy) is None

    def test_clear_and_len(self):
        cache = ProfileCache()
        profile = _profile()
        cache.store("key", profile)
        assert len(cache) == 1
        assert "key" in cache
        cache.clear()
        assert len(cache) == 0
        assert "key" not in cache


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        profile = _profile()
        key = job_fingerprint(profile.strategy, Environment(), BACKEND)
        ProfileCache(tmp_path).store(key, profile)

        fresh = ProfileCache(tmp_path)
        hit = fresh.lookup(key, profile.strategy)
        assert hit is not None
        assert hit.to_record() == profile.to_record()
        assert fresh.stats.hits == 1

    def test_entry_files_are_fingerprint_named(self, tmp_path):
        profile = _profile()
        key = job_fingerprint(profile.strategy, Environment(), BACKEND)
        ProfileCache(tmp_path).store(key, profile)
        assert (tmp_path / f"{key}.json").exists()

    def test_clear_removes_files(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.store("abc", _profile())
        cache.clear()
        assert list(tmp_path.glob("*.json")) == []

    def test_corrupt_entry_is_a_miss_and_self_heals(self, tmp_path):
        """A mangled disk entry must read as a miss, not an error, and
        the next store must overwrite it."""
        profile = _profile()
        key = job_fingerprint(profile.strategy, Environment(), BACKEND)
        ProfileCache(tmp_path).store(key, profile)
        (tmp_path / f"{key}.json").write_text("{truncated garbage")

        cache = ProfileCache(tmp_path)
        assert cache.lookup(key, profile.strategy) is None
        assert cache.stats.misses == 1
        cache.store(key, profile)
        healed = ProfileCache(tmp_path)
        assert healed.lookup(key, profile.strategy) is not None

    def test_unwritable_directory_raises_cache_error(self):
        from repro.errors import CacheError
        with pytest.raises(CacheError):
            ProfileCache("/proc/no-such-dir/cache")
