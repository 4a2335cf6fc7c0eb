"""The training VM: cores, memory, the GIL and the dispatch lock.

A :class:`Machine` bundles the client-side resources of the paper's
experimental VM (8 VCPUs, 80 GB RAM):

* ``cores`` -- a counting semaphore; *native* preprocessing steps occupy a
  core for their duration and therefore scale with threads.
* ``gil`` -- a lock held by *external* steps (NumPy / newspaper / h5py via
  ``tf.py_function`` in the paper).  External work serializes regardless of
  thread count and suffers convoy overhead, reproducing the < 1.0 speedups
  of Fig. 12/13.
* ``dispatch`` -- the serialized per-sample hand-off between the pipeline
  runtime and the consumer.  Its ~110 us hold dominates tiny samples
  (NILM aggregated plateaus near 9 k SPS however many threads run).
* ``memory_link`` -- bandwidth for page-cache hits and app-cache reads.
* ``page_cache`` -- the OS page cache (system-level caching).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.bandwidth import SharedBandwidth
from repro.sim.events import Simulation
from repro.sim.pagecache import PageCache
from repro.sim.resources import Lock, Resource
from repro.units import GB, US


class Machine:
    """Client VM resources shared by all reader threads of a run."""

    def __init__(self, sim: Simulation, cores: int = 8,
                 ram_bytes: float = 80 * GB,
                 page_cache_bytes: Optional[float] = None,
                 memory_bw: float = 150 * GB,
                 memory_stream_bw: float = 20 * GB,
                 dispatch_cost: float = 110 * US,
                 dispatch_convoy: float = 6 * US,
                 gil_convoy: float = 25 * US):
        self.sim = sim
        self.n_cores = cores
        self.ram_bytes = float(ram_bytes)
        self.cores = Resource(sim, cores, name="cores")
        self.gil = Lock(sim, name="gil", convoy_overhead=gil_convoy)
        self.dispatch = Lock(sim, name="dispatch",
                             convoy_overhead=dispatch_convoy)
        self.dispatch_cost = dispatch_cost
        self.memory_link = SharedBandwidth(sim, memory_bw, memory_stream_bw,
                                           name="memory")
        if page_cache_bytes is None:
            # The kernel cannot use all RAM for pages: the process image,
            # buffers and the framework claim a slice.  ~94% of 80 GB keeps
            # the paper's "fits under 80 GB" threshold intact.
            page_cache_bytes = 0.94 * ram_bytes
        self.page_cache = PageCache(page_cache_bytes)

    def drop_page_cache(self) -> None:
        """The paper drops the page cache between repetitions."""
        self.page_cache.drop()
