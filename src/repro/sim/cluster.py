"""The Ceph-like object store.

A :class:`StorageCluster` combines a :class:`DeviceProfile` with shared
read/write links and a metadata service.  ``read()`` is a simulation
process (a generator to ``yield from`` inside a process): it optionally
pays a per-file open (metadata slot + latency), then streams bytes over
the max-min-fair read link.  If a
:class:`~repro.sim.pagecache.PageCache` is supplied, hits are served
from memory instead and misses populate the cache.  The simulated
backend's batch body holds the same resources directly.

The cluster does not store payloads -- only the byte accounting matters
for throughput -- but its links count the bytes they moved and
``files_opened`` counts metadata opens.
"""

from __future__ import annotations

from typing import Generator, Hashable, Optional

from repro.sim.bandwidth import SharedBandwidth
from repro.sim.events import Event, Simulation
from repro.sim.pagecache import PageCache
from repro.sim.resources import Resource
from repro.sim.storage import DeviceProfile


class StorageCluster:
    """Simulated remote object store (Ceph over a 10 Gb/s link)."""

    def __init__(self, sim: Simulation, profile: DeviceProfile,
                 memory_link: Optional[SharedBandwidth] = None,
                 tie_break: str = "admission"):
        self.sim = sim
        self.profile = profile
        self.read_link = SharedBandwidth(
            sim, profile.aggregate_bw, profile.stream_bw,
            name=f"{profile.name}-read", tie_break=tie_break)
        self.write_link = SharedBandwidth(
            sim, profile.write_bw, profile.stream_bw,
            name=f"{profile.name}-write", tie_break=tie_break)
        self.metadata = Resource(sim, profile.metadata_slots,
                                 name=f"{profile.name}-mds")
        #: Client-side memory path used to serve page-cache hits.
        self.memory_link = memory_link
        #: File opens charged to the metadata service (fractional for
        #: container sources, which pay a pro-rated open per sample).
        self.files_opened = 0.0

    # -- read path ------------------------------------------------------------

    def read(self, key: Hashable, nbytes: float,
             page_cache: Optional[PageCache] = None,
             open_file: bool = False, pipeline_path: bool = True,
             ) -> Generator[Event, None, str]:
        """Read ``nbytes`` under ``key``; returns ``"cache"`` or ``"storage"``.

        ``open_file`` should be true in file-per-sample mode (the paper's
        ``unprocessed`` strategies) and false for sequential record
        streams.  Callers that need the links' ``"tag"`` tie-break (the
        serve layer's per-tenant transfers) call
        ``read_link.transfer(nbytes, tag)`` directly, as the simulated
        backend's hot loops do.
        """
        if page_cache is not None and page_cache.lookup(key):
            if self.memory_link is not None:
                yield self.memory_link.transfer(nbytes)
            return "cache"
        if open_file:
            latency = (self.profile.pipeline_open_latency if pipeline_path
                       else self.profile.open_latency)
            self.files_opened += 1
            yield self.metadata.held_for(latency)
        yield self.read_link.transfer(nbytes)
        if page_cache is not None:
            page_cache.insert(key, nbytes)
        return "storage"

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
