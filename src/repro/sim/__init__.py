"""Discrete-event hardware simulation substrate.

This subpackage replaces the paper's physical test bed (an 8-VCPU OpenStack
VM talking to an HDD/SSD-backed Ceph cluster over a 10 Gb/s link) with a
deterministic discrete-event simulation:

* :mod:`repro.sim.events` -- the event loop (a minimal, dependency-free
  simpy-like kernel: processes are generators that yield events).
* :mod:`repro.sim.resources` -- capacity-limited resources and locks.
* :mod:`repro.sim.bandwidth` -- max-min fair shared links.
* :mod:`repro.sim.storage` / :mod:`repro.sim.cluster` -- devices and the
  Ceph-like object store.
* :mod:`repro.sim.pagecache` -- the OS page cache (system-level caching).
* :mod:`repro.sim.cpu` -- cores, the GIL and the serialized dispatch lock.
* :mod:`repro.sim.fio` / :mod:`repro.sim.sysbench` -- probe tools mirroring
  the paper's Table 3 and memory-bandwidth measurements.
* :mod:`repro.sim.trace` -- unified per-epoch resource traces (elapsed
  thread-time attribution consumed by :mod:`repro.diagnosis`).
"""

from repro.sim.events import Event, Process, Simulation, Timeout
from repro.sim.resources import Lock, Resource
from repro.sim.bandwidth import SharedBandwidth
from repro.sim.trace import ResourceTrace

__all__ = [
    "Event",
    "Process",
    "Simulation",
    "Timeout",
    "Lock",
    "Resource",
    "ResourceTrace",
    "SharedBandwidth",
]
