"""The Ceph-like object store.

A :class:`StorageCluster` combines a :class:`DeviceProfile` with shared
read/write links and a metadata service.  The simulated backend's batch
body holds those resources directly (page-cache hits included); the
cluster's own :meth:`StorageCluster.read` is the fio probe's reader: a
simulation process (a generator to ``yield from`` inside a process)
that optionally pays a per-file open (metadata slot + latency), then
streams bytes over the max-min-fair read link.

The cluster does not store payloads -- only the byte accounting matters
for throughput -- but its links count the bytes they moved and
``files_opened`` counts metadata opens.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.bandwidth import SharedBandwidth
from repro.sim.events import Event, Simulation
from repro.sim.resources import Resource
from repro.sim.storage import DeviceProfile


class StorageCluster:
    """Simulated remote object store (Ceph over a 10 Gb/s link)."""

    def __init__(self, sim: Simulation, profile: DeviceProfile):
        self.sim = sim
        self.profile = profile
        self.read_link = SharedBandwidth(
            sim, profile.aggregate_bw, profile.stream_bw,
            name=f"{profile.name}-read")
        self.write_link = SharedBandwidth(
            sim, profile.write_bw, profile.stream_bw,
            name=f"{profile.name}-write")
        self.metadata = Resource(sim, profile.metadata_slots,
                                 name=f"{profile.name}-mds")
        #: File opens charged to the metadata service (fractional for
        #: container sources, which pay a pro-rated open per sample).
        self.files_opened = 0.0

    # -- read path ------------------------------------------------------------

    def read(self, nbytes: float, open_file: bool = False,
             ) -> Generator[Event, None, None]:
        """Read ``nbytes`` over the read link (the fio probe's reader).

        ``open_file`` first charges one metadata open at the device's
        raw ``open_latency`` (fio's random small-file workloads);
        sequential streams skip it.
        """
        if open_file:
            self.files_opened += 1
            yield self.metadata.held_for(self.profile.open_latency)
        yield self.read_link.transfer(nbytes)

    # -- accounting -----------------------------------------------------------

    @property
    def bytes_read_from_storage(self) -> float:
        """Bytes actually moved over the network read link.

        Live: includes the pro-rata progress of in-flight transfers at
        the current simulated time (closed-form on the virtual-progress
        link, no per-stream scan).
        """
        return self.read_link.bytes_moved

    @property
    def bytes_written(self) -> float:
        """Bytes moved over the write link, including in-flight progress."""
        return self.write_link.bytes_moved
