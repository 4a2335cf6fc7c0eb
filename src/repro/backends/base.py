"""Backend contract: run configurations and result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro import calibration as cal
from repro.errors import ProfilingError
from repro.pipelines.base import SplitPlan
from repro.sim.storage import DeviceProfile, HDD_CEPH
from repro.sim.trace import ResourceTrace

#: Cache modes (paper Sec. 4.2).
CACHE_NONE = "none"            # page cache dropped between epochs
CACHE_SYSTEM = "system"        # page cache retained across epochs
CACHE_APPLICATION = "application"  # deserialized tensors cached in RAM

_CACHE_MODES = (CACHE_NONE, CACHE_SYSTEM, CACHE_APPLICATION)


@dataclass(frozen=True)
class Environment:
    """The hardware a run executes on (paper Sec. 3.3 by default)."""

    storage: DeviceProfile = HDD_CEPH
    cores: int = cal.CORES
    ram_bytes: float = cal.RAM_BYTES
    memory_bw: float = cal.MEMORY_BW
    memory_stream_bw: float = cal.MEMORY_STREAM_BW


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one strategy execution (PRESTO Strategy parameters)."""

    threads: int = cal.DEFAULT_THREADS
    epochs: int = 1
    compression: Optional[str] = None      # None | "GZIP" | "ZLIB"
    cache_mode: str = CACHE_NONE
    shards: Optional[int] = None           # defaults to thread count
    shuffle_buffer: int = 0                # samples; 0 disables shuffling
    max_jobs: int = cal.MAX_JOBS_PER_RUN

    def __post_init__(self):
        if self.threads < 1:
            raise ProfilingError("need at least one thread")
        if self.epochs < 1:
            raise ProfilingError("need at least one epoch")
        if self.cache_mode not in _CACHE_MODES:
            raise ProfilingError(
                f"cache_mode must be one of {_CACHE_MODES}, "
                f"got {self.cache_mode!r}")
        if self.shuffle_buffer < 0:
            raise ProfilingError("shuffle buffer must be non-negative")

    @property
    def effective_shards(self) -> int:
        return self.shards if self.shards is not None else self.threads


@dataclass
class EpochResult:
    """Throughput and I/O counters of one training epoch."""

    epoch: int
    duration: float
    samples: int
    bytes_from_storage: float
    bytes_from_cache: float
    cache_hit_rate: float
    served_from_app_cache: bool = False
    #: Per-resource elapsed-time attribution (simulated backend only;
    #: backends that cannot measure it leave this None).
    trace: Optional[ResourceTrace] = None

    @property
    def throughput(self) -> float:
        """Samples per second -- the paper's T4."""
        return self.samples / self.duration if self.duration > 0 else 0.0

    @property
    def avg_read_bw(self) -> float:
        """Average network read speed (Table 4's right columns)."""
        return (self.bytes_from_storage / self.duration
                if self.duration > 0 else 0.0)


@dataclass
class OfflineResult:
    """Outcome of materialising the offline part of a strategy."""

    duration: float
    bytes_read: float
    bytes_written: float
    compression_seconds: float = 0.0


@dataclass
class StrategyRunResult:
    """Everything the profiler records about one strategy execution."""

    pipeline: str
    strategy: str
    config: RunConfig
    environment: Environment
    #: Storage consumption of the representation the training loop reads
    #: (compressed size if compression is on; the paper's Fig. 6 bars).
    storage_bytes: float
    offline: Optional[OfflineResult]
    epochs: list[EpochResult] = field(default_factory=list)
    #: Application-level caching needs the whole dataset in RAM; the
    #: paper's CV/NLP last strategies "failed to run" (Sec. 4.2 obs. 4).
    app_cache_failed: bool = False
    #: Kernel events the run's private simulation resolved (0 for
    #: backends that execute nothing simulated).  Deterministic, so the
    #: declarative API reports it as a machine-independent cost metric.
    events_processed: int = 0

    @property
    def throughput(self) -> float:
        """First-epoch (cold) throughput, the headline metric."""
        return self.epochs[0].throughput if self.epochs else 0.0

    @property
    def cached_throughput(self) -> float:
        """Last-epoch throughput (after caches warm up)."""
        return self.epochs[-1].throughput if self.epochs else 0.0

    @property
    def preprocessing_seconds(self) -> float:
        """Offline preprocessing time (0 for the unprocessed strategy)."""
        return self.offline.duration if self.offline else 0.0

    def epoch(self, index: int) -> EpochResult:
        return self.epochs[index]


class Backend(Protocol):
    """The contract every execution backend satisfies."""

    def run(self, plan: SplitPlan, config: RunConfig) -> StrategyRunResult:
        """Execute a strategy and return its metrics."""
        ...
