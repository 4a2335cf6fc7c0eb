"""Regression tests for the ProfileCache shared-directory write race.

Two processes sharing a ``--cache DIR`` used to funnel every store of
the same fingerprint through one shared temp path (``<key>.tmp``): a
writer could rename the *other* writer's half-written file into place,
or crash with FileNotFoundError when the temp it was about to rename
had already been consumed.  The fix gives every store a temp name
unique per process and per write; these tests pin the contract.
"""

import json
import threading

import pytest

from repro.backends.base import RunConfig
from repro.backends.simulated import SimulatedBackend
from repro.core.strategy import Strategy
from repro.exec.cache import PAYLOAD_VERSION, ProfileCache
from repro.exec.engine import SweepEngine
from repro.pipelines.registry import get_pipeline

KEY = "f" * 64


@pytest.fixture(scope="module")
def profile():
    return SweepEngine(SimulatedBackend()).profile(
        [Strategy(get_pipeline("MP3").split_at(2), RunConfig())])[0]


def test_concurrent_stores_of_one_key_never_corrupt(tmp_path, profile):
    """Many writers x one fingerprint: every interleaving must leave a
    parseable, current-version entry and raise nothing."""
    writers = [ProfileCache(tmp_path) for _ in range(4)]
    errors = []
    barrier = threading.Barrier(len(writers))

    def hammer(cache):
        try:
            barrier.wait()
            for _ in range(50):
                cache.store(KEY, profile)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(cache,))
               for cache in writers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    payload = json.loads((tmp_path / f"{KEY}.json").read_text())
    assert payload["version"] == PAYLOAD_VERSION
    assert payload["fingerprint"] == KEY
    assert len(payload["runs"]) == len(profile.runs)


def test_concurrent_stores_leave_no_temp_litter(tmp_path, profile):
    writers = [ProfileCache(tmp_path) for _ in range(3)]
    threads = [threading.Thread(
        target=lambda cache=cache: [cache.store(KEY, profile)
                                    for _ in range(30)])
        for cache in writers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert list(tmp_path.glob("*.tmp")) == []


def test_temp_names_are_unique_per_write(tmp_path, profile, monkeypatch):
    """The temp path must differ between writes even within one
    process, so interrupted writes can never collide."""
    import repro.exec.cache as cache_module
    seen = []
    original = cache_module.os.replace

    def spy(src, dst):
        seen.append(str(src))
        return original(src, dst)

    monkeypatch.setattr(cache_module.os, "replace", spy)
    cache = ProfileCache(tmp_path)
    cache.store(KEY, profile)
    cache.store(KEY, profile)
    assert len(seen) == 2
    assert seen[0] != seen[1]
    assert all(path.endswith(".tmp") for path in seen)


def test_fresh_process_reads_what_racers_wrote(tmp_path, profile):
    writer = ProfileCache(tmp_path)
    writer.store(KEY, profile)
    reader = ProfileCache(tmp_path)
    hit = reader.lookup(KEY, profile.strategy)
    assert hit is not None
    assert hit.to_record() == profile.to_record()
    assert reader.stats.hits == 1
    assert reader.stats.misses == 0


def test_clear_sweeps_stale_but_spares_fresh_temp_files(tmp_path, profile):
    import os
    import time
    from repro.exec.cache import STALE_TMP_SECONDS
    cache = ProfileCache(tmp_path)
    cache.store(KEY, profile)
    stale = tmp_path / f"{KEY}.json.12345.0.tmp"
    stale.write_text("litter from a crashed writer")
    old = time.time() - STALE_TMP_SECONDS - 10
    os.utime(stale, (old, old))
    fresh = tmp_path / f"{KEY}.json.67890.0.tmp"
    fresh.write_text("a live writer is about to rename this")
    cache.clear()
    # Entries and crash litter gone; the live writer's file survives so
    # its imminent os.replace cannot crash with FileNotFoundError.
    assert list(tmp_path.glob("*")) == [fresh]


def test_reader_racing_a_writer_sees_hit_or_clean_miss(tmp_path, profile):
    """A reader polling while a writer hammers the same key must only
    ever see a full entry or a miss -- never a decode error."""
    writer_cache = ProfileCache(tmp_path)
    writer_cache.store(KEY, profile)  # the entry exists from the start
    stop = threading.Event()

    def write_loop():
        while not stop.is_set():
            writer_cache.store(KEY, profile)

    writer = threading.Thread(target=write_loop)
    writer.start()
    try:
        hits = 0
        for _ in range(200):
            reader = ProfileCache(tmp_path)
            result = reader.lookup(KEY, profile.strategy)
            if result is not None:
                hits += 1
                assert result.to_record() == profile.to_record()
    finally:
        stop.set()
        writer.join()
    assert hits > 0  # the happy path was actually exercised
