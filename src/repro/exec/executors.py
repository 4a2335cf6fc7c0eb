"""Pluggable job executors for the sweep engine.

Three strategies for fanning profiling jobs out, all exposing the same
``map(fn, payloads) -> list`` contract with results in submission order
(so parallel sweeps stay byte-identical to serial ones):

* :class:`SerialExecutor` -- run in the calling thread; the default and
  the reference for determinism checks.
* :class:`ThreadExecutor` -- a thread pool; useful when the backend
  releases the GIL (the in-process backend's NumPy kernels) and for
  jobs that are not picklable.
* :class:`ProcessExecutor` -- a process pool; real parallelism for the
  pure-Python simulated backend.  Requires picklable ``fn``/payloads.

:func:`resolve_executor` maps user-facing specs (``--jobs N``, names) to
instances.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import SweepError


def default_workers() -> int:
    """A sensible pool size: physical parallelism minus one, at least 2."""
    return max(2, (os.cpu_count() or 2) - 1)


class SerialExecutor:
    """Run every job inline, in order."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable[[Any], Any],
            payloads: Sequence[Any]) -> list[Any]:
        return [fn(payload) for payload in payloads]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class _PoolExecutor:
    """Shared shape of the pool-backed executors."""

    name = "pool"
    _pool_cls: type

    def __init__(self, jobs: Optional[int] = None):
        if jobs is not None and jobs < 1:
            raise SweepError(f"need at least one worker, got {jobs}")
        self.jobs = jobs or default_workers()

    def map(self, fn: Callable[[Any], Any],
            payloads: Sequence[Any]) -> list[Any]:
        if not payloads:
            return []
        workers = min(self.jobs, len(payloads))
        with self._pool_cls(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


class ThreadExecutor(_PoolExecutor):
    """Fan out over a thread pool (shared memory, GIL-bound for pure
    Python work)."""

    name = "thread"
    _pool_cls = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """Fan out over a process pool (true parallelism; payloads must
    pickle)."""

    name = "process"
    _pool_cls = ProcessPoolExecutor


#: What callers may pass wherever an executor is expected.
ExecutorSpec = Union[None, int, str, SerialExecutor, _PoolExecutor]

_NAMED = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def resolve_executor(spec: ExecutorSpec = None):
    """Turn a user-facing spec into an executor instance.

    ``None``/``1``/"serial" -> serial; an int N > 1 -> a process pool of
    N workers (the ``--jobs N`` path); "thread"/"process" -> the named
    pool with default sizing; executor instances pass through.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, (SerialExecutor, _PoolExecutor)):
        return spec
    if isinstance(spec, bool):
        raise SweepError(f"invalid executor spec: {spec!r}")
    if isinstance(spec, int):
        if spec < 1:
            raise SweepError(f"need at least one job, got {spec}")
        return SerialExecutor() if spec == 1 else ProcessExecutor(spec)
    if isinstance(spec, str):
        name = spec.lower()
        if name in _NAMED:
            return _NAMED[name]()
        raise SweepError(
            f"unknown executor {spec!r}; known: {sorted(_NAMED)}")
    raise SweepError(f"invalid executor spec: {spec!r}")
