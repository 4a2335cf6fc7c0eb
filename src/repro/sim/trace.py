"""Unified resource traces: where did the epoch's thread-time go?

The paper's title question needs more than a throughput number -- it
needs *attribution*: how much of an epoch was spent computing, moving
bytes, decoding records, or simply stalled on serialized hand-offs and
load imbalance.  A :class:`ResourceTrace` aggregates exactly that for
one simulated epoch, measured in *elapsed thread-seconds* per category
(so contention and queueing are charged to the phase that waited, the
way ``perf``/``dstat`` wall-clock profiles would see it).  The batch
body (:func:`repro.backends.simulated.batch_body`) brackets each hold
inline: it reads ``sim.now`` before and after, so tracing never
changes event order.

Categories:

* ``open_seconds``    -- metadata-server file opens (storage path)
* ``read_seconds``    -- network transfers from the object store
* ``memory_seconds``  -- page-cache / app-cache reads over the memory bus
* ``decode_seconds``  -- decompression + record deserialization
* ``cpu_seconds``     -- framework-native online step compute
* ``gil_seconds``     -- external (GIL-holding) online step compute
* ``dispatch_seconds``-- the serialized per-sample hand-off lock
* ``shuffle_seconds`` -- shuffle-buffer maintenance

Anything not bracketed (runtime overhead, buffer allocation, barrier
idle time when threads finish unevenly) lands in the derived *stall*
remainder, so the four attribution fractions returned by
:meth:`ResourceTrace.fractions` always sum to exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.errors import SimulationError

#: Trace categories that accumulate elapsed thread-seconds.
TRACE_CATEGORIES = ("open", "read", "memory", "decode", "cpu", "gil",
                    "dispatch", "shuffle")


@dataclass
class ResourceTrace:
    """Per-epoch elapsed-time attribution plus byte counters."""

    duration: float = 0.0          # epoch wall-clock seconds
    threads: int = 1               # reader threads actually running
    open_seconds: float = 0.0
    read_seconds: float = 0.0
    memory_seconds: float = 0.0
    decode_seconds: float = 0.0
    cpu_seconds: float = 0.0
    gil_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    bytes_from_storage: float = 0.0
    bytes_from_cache: float = 0.0
    cache_hit_rate: float = 0.0

    # -- derived time budgets ----------------------------------------------

    @property
    def total_thread_seconds(self) -> float:
        """The full time budget: wall duration across all reader threads."""
        return self.duration * self.threads

    @property
    def accounted_seconds(self) -> float:
        """Thread-seconds bracketed by an explicit category."""
        return sum(getattr(self, f"{category}_seconds")
                   for category in TRACE_CATEGORIES)

    @property
    def stall_seconds(self) -> float:
        """Unaccounted thread-seconds: hand-off waits outside brackets,
        runtime overhead, and end-of-epoch load imbalance."""
        return max(self.total_thread_seconds - self.accounted_seconds, 0.0)

    # -- attribution -------------------------------------------------------

    def fractions(self) -> dict[str, float]:
        """The four attribution fractions; non-negative, sum to 1.0.

        * ``cpu``     -- native + external (GIL) step compute
        * ``storage`` -- opens + network reads + cache-memory reads
        * ``decode``  -- decompression + deserialization
        * ``stall``   -- dispatch/shuffle serialization and idle remainder
        """
        total = self.total_thread_seconds
        if total <= 0:
            return {"cpu": 0.0, "storage": 0.0, "decode": 0.0, "stall": 1.0}
        cpu = (self.cpu_seconds + self.gil_seconds) / total
        storage = (self.open_seconds + self.read_seconds
                   + self.memory_seconds) / total
        decode = self.decode_seconds / total
        accounted = cpu + storage + decode
        if accounted > 1.0:
            # Float round-off can nudge the bracketed sum past the wall
            # budget; renormalize so the contract (sum == 1.0) holds.
            cpu, storage, decode = (value / accounted
                                    for value in (cpu, storage, decode))
            accounted = 1.0
        return {"cpu": cpu, "storage": storage, "decode": decode,
                "stall": 1.0 - accounted}

    def dominant(self) -> str:
        """The binding category (ties resolved in declaration order)."""
        shares = self.fractions()
        return max(shares, key=shares.get)

    # -- combination -------------------------------------------------------

    def merged(self, other: "ResourceTrace") -> "ResourceTrace":
        """Sum of two traces (e.g. across epochs); thread width must match."""
        if other.threads != self.threads:
            raise SimulationError(
                f"cannot merge traces with different thread counts "
                f"({self.threads} vs {other.threads})")
        merged = ResourceTrace(
            duration=self.duration + other.duration, threads=self.threads)
        for category in TRACE_CATEGORIES:
            field = f"{category}_seconds"
            setattr(merged, field,
                    getattr(self, field) + getattr(other, field))
        merged.bytes_from_storage = (self.bytes_from_storage
                                     + other.bytes_from_storage)
        merged.bytes_from_cache = (self.bytes_from_cache
                                   + other.bytes_from_cache)
        total = merged.bytes_from_storage + merged.bytes_from_cache
        merged.cache_hit_rate = (merged.bytes_from_cache / total
                                 if total > 0 else 0.0)
        return merged

    def scaled(self, factor: float) -> "ResourceTrace":
        """All time and byte quantities scaled by ``factor`` (> 0).

        Scaling is attribution-preserving: fractions are ratios of
        thread-seconds, so a uniformly scaled trace diagnoses identically.
        """
        if factor <= 0:
            raise SimulationError(f"scale factor must be positive: {factor}")
        scaled = ResourceTrace(duration=self.duration * factor,
                               threads=self.threads,
                               cache_hit_rate=self.cache_hit_rate)
        for category in TRACE_CATEGORIES:
            field = f"{category}_seconds"
            setattr(scaled, field, getattr(self, field) * factor)
        scaled.bytes_from_storage = self.bytes_from_storage * factor
        scaled.bytes_from_cache = self.bytes_from_cache * factor
        return scaled

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Flatten to JSON-serializable primitives (profile-cache format)."""
        return {field.name: getattr(self, field.name)
                for field in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ResourceTrace":
        return cls(**payload)

