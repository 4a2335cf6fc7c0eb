"""An fio-style storage probe (paper Table 3).

The paper characterises its Ceph cluster with four fio workloads:
sequential (one 5 GB file per thread) and random (5000 files of 0.2 MB per
thread), each single- and multi-threaded.  :func:`run_fio` replays the same
workloads against a simulated :class:`~repro.sim.cluster.StorageCluster`
and reports bandwidth, IOPS and latency in the paper's format.

fio reads through the lean I/O path (no DL-framework overhead), so the
random workloads use ``DeviceProfile.open_latency`` rather than the
pipeline-path latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.cluster import StorageCluster
from repro.sim.events import Event, Simulation, all_of
from repro.sim.storage import DeviceProfile
from repro.units import GB, KIB, MB


@dataclass(frozen=True)
class FioWorkload:
    """One row of the fio profile."""

    threads: int
    files_per_thread: int
    file_bytes: float

    @property
    def is_sequential(self) -> bool:
        return self.files_per_thread == 1

    @property
    def total_bytes(self) -> float:
        return self.threads * self.files_per_thread * self.file_bytes

    def describe(self) -> str:
        kind = "sequential" if self.is_sequential else "random"
        return (f"{kind}: {self.threads} thread(s) x "
                f"{self.files_per_thread} file(s) x {self.file_bytes / MB:.1f} MB")


@dataclass
class FioResult:
    """Measured outcome of one workload."""

    workload: FioWorkload
    duration: float
    bandwidth: float
    iops: float
    latency_low: float
    latency_high: float


#: The paper's Table 3 workloads: 5 GB sequential vs 5000 x 0.2 MB random.
TABLE3_WORKLOADS = (
    FioWorkload(threads=1, files_per_thread=1, file_bytes=5 * GB),
    FioWorkload(threads=8, files_per_thread=1, file_bytes=5 * GB),
    FioWorkload(threads=1, files_per_thread=5000, file_bytes=0.2 * MB),
    FioWorkload(threads=8, files_per_thread=5000, file_bytes=0.2 * MB),
)


def _reader(cluster: StorageCluster, workload: FioWorkload
            ) -> Generator[Event, None, None]:
    for _ in range(workload.files_per_thread):
        yield from cluster.read(workload.file_bytes,
                                open_file=not workload.is_sequential)


def run_workload(profile: DeviceProfile, workload: FioWorkload) -> FioResult:
    """Run one fio workload on a fresh simulated cluster."""
    sim = Simulation()
    cluster = StorageCluster(sim, profile)
    threads = [
        sim.process(_reader(cluster, workload), name=f"fio-{i}")
        for i in range(workload.threads)
    ]

    def wait_all() -> Generator[Event, None, None]:
        yield all_of(sim, threads)

    sim.run_process(wait_all(), name="fio")
    duration = sim.now
    bandwidth = workload.total_bytes / duration
    # fio counts 4 KiB block operations, not file opens.
    iops = bandwidth / (4 * KIB)
    return FioResult(
        workload=workload,
        duration=duration,
        bandwidth=bandwidth,
        iops=iops,
        latency_low=4e-6,
        latency_high=profile.block_latency + 3e-6,
    )


def run_fio(profile: DeviceProfile,
            workloads: tuple[FioWorkload, ...] = TABLE3_WORKLOADS,
            ) -> list[FioResult]:
    """Replay the full Table 3 profile against ``profile``."""
    return [run_workload(profile, workload) for workload in workloads]
