"""Parallel sweep execution: engine, executors, profile cache, events.

This package turns exhaustive strategy sweeps from serial-and-stateless
into parallel-and-memoized:

* :class:`repro.exec.engine.SweepEngine` -- fans profiling jobs out over
  a pluggable executor and collects deterministic, ordered results.
* :class:`repro.exec.cache.ProfileCache` -- content-addressed result
  store keyed by (pipeline, strategy, environment, backend) fingerprints,
  with hit/miss accounting and optional on-disk persistence.
* :mod:`repro.exec.executors` -- serial / thread-pool / process-pool
  execution strategies behind one ``map`` contract.
* :mod:`repro.exec.events` -- the progress event stream for long sweeps.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exec.cache": ("CacheStats", "ProfileCache"),
    "repro.exec.engine": ("SweepEngine", "SweepResult"),
    "repro.exec.events": ("ProgressPrinter", "SweepEvent"),
    "repro.exec.executors": ("ProcessExecutor", "SerialExecutor",
                             "ThreadExecutor", "resolve_executor"),
    "repro.exec.fingerprint": ("job_fingerprint",),
})

__all__ = [
    "CacheStats",
    "ProcessExecutor",
    "ProfileCache",
    "ProgressPrinter",
    "SerialExecutor",
    "SweepEngine",
    "SweepEvent",
    "SweepResult",
    "ThreadExecutor",
    "job_fingerprint",
    "resolve_executor",
]
