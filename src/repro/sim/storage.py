"""Storage device profiles.

A :class:`DeviceProfile` captures everything the simulator needs to know
about a storage backend: how fast a single sequential stream goes, what the
whole cluster can sustain, and how expensive opening a file is.

Two open latencies are carried per device:

* ``open_latency`` -- the raw metadata/seek cost as seen by a lean probe
  such as fio (paper Table 3: 33 files/s for one thread on Ceph-HDD
  implies ~30 ms per 0.2 MB file).
* ``pipeline_open_latency`` -- the *effective* per-file cost seen by a DL
  data loader reading one sample per file.  The paper's CV pipeline reaches
  only 107 SPS on 8 threads (74.8 ms per sample, ~67 ms of which is not
  CPU), i.e. roughly twice the fio cost: the framework path adds VFS
  round-trips and cold metadata-server lookups across 1.3 M files.  We keep
  both constants explicit rather than hiding the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.units import GB, MB, MS, US


@dataclass(frozen=True)
class DeviceProfile:
    """Static performance characteristics of a storage backend."""

    name: str
    #: Max sequential bandwidth of a single stream, bytes/s.
    stream_bw: float
    #: Max aggregate read bandwidth across all streams, bytes/s.
    aggregate_bw: float
    #: Max aggregate write bandwidth, bytes/s.
    write_bw: float
    #: Per-file open/seek latency on the lean (fio) path, seconds.
    open_latency: float
    #: Per-file open latency on the DL-framework path, seconds.
    pipeline_open_latency: float
    #: Concurrent metadata operations the cluster can service.
    metadata_slots: int
    #: Reported block-level submission latency (Table 3 "Latency" column).
    block_latency: float = 7 * US

    def stream_share(self, readers: int) -> float:
        """Per-stream read rate with ``readers`` concurrent readers: the
        fair share of the aggregate, capped at one stream's rate."""
        return min(self.stream_bw, self.aggregate_bw / readers)

    def with_overrides(self, **kwargs) -> "DeviceProfile":
        """Return a copy with selected fields replaced (what-if studies)."""
        return replace(self, **kwargs)


#: The paper's HDD-backed Ceph cluster behind a 10 Gb/s link (Table 3:
#: 219 MB/s single stream, 910 MB/s with 8 threads, 33 files/s random).
#: Six metadata slots reproduce the sub-linear random-access scaling of
#: Table 3 (33 -> 202 files/s from 1 -> 8 threads); the 50 ms pipeline-path
#: open then lands CV ``unprocessed`` at the paper's 107 SPS.
HDD_CEPH = DeviceProfile(
    name="ceph-hdd",
    stream_bw=219 * MB,
    aggregate_bw=910 * MB,
    write_bw=910 * MB,
    open_latency=29.5 * MS,
    pipeline_open_latency=52 * MS,
    metadata_slots=6,
)

#: The paper's SSD-backed Ceph cluster (Sec. 4.1: CV unprocessed reaches
#: 588 SPS => ~6 ms effective per-file cost; sequential reads match HDD
#: because the 10 Gb/s link is the binding constraint).
SSD_CEPH = DeviceProfile(
    name="ceph-ssd",
    stream_bw=219 * MB,
    aggregate_bw=910 * MB,
    write_bw=910 * MB,
    open_latency=1.2 * MS,
    pipeline_open_latency=6.0 * MS,
    metadata_slots=64,
)

#: A local NVMe drive (not in the paper; used by the what-if example).
NVME_LOCAL = DeviceProfile(
    name="nvme-local",
    stream_bw=2_500 * MB,
    aggregate_bw=6_000 * MB,
    write_bw=3_000 * MB,
    open_latency=80 * US,
    pipeline_open_latency=250 * US,
    metadata_slots=256,
)

#: RAM disk: effectively free opens, memory-speed streams.
MEMORY_DISK = DeviceProfile(
    name="memory",
    stream_bw=20 * GB,
    aggregate_bw=150 * GB,
    write_bw=150 * GB,
    open_latency=2 * US,
    pipeline_open_latency=5 * US,
    metadata_slots=1024,
)

#: Registry for CLI/example lookup by name.
DEVICE_PROFILES: dict[str, DeviceProfile] = {
    profile.name: profile
    for profile in (HDD_CEPH, SSD_CEPH, NVME_LOCAL, MEMORY_DISK)
}
