"""Unified telemetry for the simulator: metrics, tracing, follow, trends.

Everything here is a *null-by-default hook*: the workload engines accept
``metrics=None`` / ``tracer=None`` and a run with telemetry off
schedules exactly the same DES events as before this package existed
(goldens byte-identical, pinned bench event counts unchanged -- see
``tests/obs/test_obs_differential.py``).

* :mod:`repro.obs.metrics` -- sim-clock counters/gauges/histograms with
  a periodic sampler producing time-series snapshots;
* :mod:`repro.obs.tracing` -- span tracing with Chrome trace-event
  (Perfetto) export;
* :mod:`repro.obs.follow` -- live text dashboard over the execution
  ledger feed (``presto ctl --follow``);
* :mod:`repro.obs.trend` -- regression flagging across a series of
  ``SIMBENCH.json`` snapshots (``presto trend``).

:class:`Telemetry` bundles the per-run switches; the CLI builds one from
``--metrics-out``/``--trace-out``/``--trace-detail``/``--follow`` and
hands it to :meth:`repro.api.session.Session.run` *beside* the spec, so
spec fingerprints (and the profile cache keyed on them) never change
with observation settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO

from .follow import LedgerFollower
from .metrics import (DEFAULT_METRICS_INTERVAL, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .tracing import Span, Tracer, validate_chrome_trace
from .trend import TrendPoint, TrendReport, analyze, analyze_files

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_METRICS_INTERVAL",
    "Span", "Tracer", "validate_chrome_trace",
    "LedgerFollower",
    "TrendPoint", "TrendReport", "analyze", "analyze_files",
    "Telemetry",
]


@dataclass
class Telemetry:
    """Per-run observation settings (orthogonal to the experiment spec).

    ``metrics_interval=None`` disables the sampler entirely; ``trace``
    turns on job/epoch/request spans and ``trace_detail`` additionally
    the per-batch/per-transfer spans in the backend hot loop.
    ``follow`` is a text stream for the live ledger dashboard.
    """

    metrics_interval: Optional[float] = None
    trace: bool = False
    trace_detail: bool = False
    follow: Optional[TextIO] = None

    @property
    def enabled(self) -> bool:
        return (self.metrics_interval is not None or self.trace
                or self.follow is not None)
