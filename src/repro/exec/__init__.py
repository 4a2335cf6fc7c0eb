"""Parallel sweep execution: engine, profile cache, events.

This package turns exhaustive strategy sweeps from serial-and-stateless
into parallel-and-memoized:

* :class:`repro.exec.engine.SweepEngine` -- the one profiling engine:
  runs jobs inline or fans them out over ``jobs`` pool workers and
  collects deterministic, ordered results.
* :class:`repro.exec.cache.ProfileCache` -- content-addressed result
  store keyed by (pipeline, strategy, environment, backend) fingerprints,
  with hit/miss accounting and optional on-disk persistence.
* :mod:`repro.exec.events` -- the progress event stream for long sweeps.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.exec.cache": ("CacheStats", "ProfileCache"),
    "repro.exec.engine": ("SweepEngine", "SweepResult"),
    "repro.exec.events": ("ProgressPrinter", "SweepEvent"),
    "repro.exec.fingerprint": ("job_fingerprint",),
})

__all__ = [
    "CacheStats",
    "ProfileCache",
    "ProgressPrinter",
    "SweepEngine",
    "SweepEvent",
    "SweepResult",
    "job_fingerprint",
]
