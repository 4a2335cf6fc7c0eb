"""Sim-clock metrics: counters, gauges, histograms, periodic snapshots.

The registry is *passive*: it never schedules DES events by itself.  A
workload engine that was handed a registry runs on a
:class:`~repro.serve.runtime.ClusterRuntime`, whose one sampler process
calls :meth:`MetricsRegistry.snapshot` every
:attr:`MetricsRegistry.interval` seconds of the simulation clock; with no
registry attached the engines schedule **zero** extra events, which is
the invariant the differential tests in ``tests/obs`` pin.

All timestamps are simulated seconds -- the registry never reads wall
time, so snapshots are deterministic for a fixed scenario and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ObservabilityError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_METRICS_INTERVAL"]

#: Default sim-seconds between metrics samples.
DEFAULT_METRICS_INTERVAL = 60.0


@dataclass
class Counter:
    """Monotonically increasing count (events processed, bytes moved)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """Point-in-time level (queue depth, link utilization)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed-bucket distribution (queue delays, span durations).

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in the overflow bucket.  Sum/count ride along so means
    survive the export without keeping raw samples.
    """

    name: str
    bounds: tuple = (0.1, 1.0, 10.0, 60.0, 300.0, 1800.0)
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms plus a time-series of snapshots.

    ``snapshot(now)`` appends one ``{"t": now, "values": {...}}`` sample
    holding every counter and gauge value at that instant.  Histograms
    are cumulative and exported once, in :meth:`to_dict`.
    ``interval`` is the simulated seconds between samples; it must be
    finite and positive, since the sampler schedules a timeout of that
    length on the simulation clock.
    """

    def __init__(self, interval: float = DEFAULT_METRICS_INTERVAL) -> None:
        if not 0.0 < interval < float("inf"):
            raise ObservabilityError(
                f"metrics interval must be finite and positive, "
                f"got {interval!r}")
        self.interval = interval
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.samples: List[dict] = []

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Optional[tuple] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            if bounds is not None:
                instrument = Histogram(name, bounds=tuple(bounds))
            else:
                instrument = Histogram(name)
            self._histograms[name] = instrument
        return instrument

    # -- sampling -------------------------------------------------------

    def snapshot(self, now: float) -> dict:
        """Record (and return) one sample of every counter and gauge."""
        values: Dict[str, float] = {}
        for name, counter in self._counters.items():
            values[name] = counter.value
        for name, gauge in self._gauges.items():
            values[name] = gauge.value
        sample = {"t": round(now, 6), "values": values}
        self.samples.append(sample)
        return sample

    def series(self, name: str) -> List[tuple]:
        """``[(t, value), ...]`` for one instrument across all samples."""
        return [(sample["t"], sample["values"][name])
                for sample in self.samples if name in sample["values"]]

    @property
    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._histograms))

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "samples": self.samples,
            "histograms": {name: hist.to_dict()
                           for name, hist in sorted(self._histograms.items())},
        }
