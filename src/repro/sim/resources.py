"""Capacity-limited resources for the simulation kernel.

Two primitives cover every contention point in the storage/CPU model:

* :class:`Resource` -- a counting semaphore with a FIFO wait queue (CPU
  cores, metadata-server slots, concurrent-seek slots).
* :class:`Lock` -- a single-slot resource with an optional *convoy
  overhead*: each acquisition costs extra time proportional to the number
  of waiters.  This models the context-switch convoy the paper observed for
  tiny samples (Sec. 4.4 observation 1: 100,000 context switches/s at
  0.01 MB samples erase the benefit of multi-threading).

A process holds either one for a fixed time by yielding the request
:meth:`Resource.held_for` (or :meth:`Lock.held_for`) builds; the kernel
then grants, holds and releases the slot without a generator resume or
an event allocation in between (see :class:`repro.sim.events.Process`).
That is the one way to hold a slot for a known time; ``acquire()`` /
``release()`` stay for holders whose release is not timed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import ResourceError, SimulationError
from repro.sim.events import Event, Simulation

#: What ``held_for`` builds and a process yields: ``(resource, seconds,
#: None)`` for a fixed hold, ``(lock, per_unit, units)`` for one whose
#: time :meth:`Lock._hold_seconds` computes at grant.  A plain tuple,
#: because one is built per hold.
HoldRequest = tuple["Resource", float, Optional[float]]


class Resource:
    """A counting semaphore with FIFO granting.

    Usage inside a process::

        yield resource.held_for(service_time)

    which is event-for-event the same as::

        yield resource.acquire()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulation, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        self.total_acquisitions = 0
        self.peak_in_use = 0

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def _claim(self, grant: Event) -> bool:
        """Take a slot for ``grant`` now (``True``) or queue it (``False``).

        A queued grant is triggered by :meth:`release`, in FIFO order.
        """
        in_use = self._in_use
        if in_use < self.capacity:
            in_use += 1
            self._in_use = in_use
            self.total_acquisitions += 1
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            return True
        self._waiters.append(grant)
        return False

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = Event(self.sim)
        if self._claim(grant):
            grant.succeed(self)
        return grant

    def release(self) -> None:
        """Release a previously-acquired slot."""
        in_use = self._in_use
        if in_use <= 0:
            raise ResourceError(f"release of idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # Hand the slot straight to the next waiter.
            self.total_acquisitions += 1
            waiters.popleft().succeed(self)
        else:
            self._in_use = in_use - 1

    def held_for(self, seconds: float) -> HoldRequest:
        """A request to yield: acquire a slot, hold it ``seconds``, release."""
        if not seconds >= 0:
            raise SimulationError(f"negative hold: {seconds}")
        return (self, seconds, None)


class Lock(Resource):
    """A mutex with an optional per-waiter convoy overhead.

    ``convoy_overhead`` adds that many seconds to every *hold* for each
    process queued behind the lock at grant time, capped by
    ``max_convoy_waiters``.  With 8 threads hammering a 110 us dispatch
    lock this reproduces the near-1x speedup the paper measured for
    0.01 MB samples (Fig. 11) without special-casing sample sizes.
    """

    def __init__(self, sim: Simulation, name: str = "lock",
                 convoy_overhead: float = 0.0, max_convoy_waiters: int = 8):
        super().__init__(sim, capacity=1, name=name)
        self.convoy_overhead = convoy_overhead
        self.max_convoy_waiters = max_convoy_waiters

    def held_for(self, per_unit: float, units: float = 1.0) -> HoldRequest:
        """A request to yield: hold for ``units`` work items.

        The hold lasts ``units * (per_unit + penalty)``, where the convoy
        penalty is taken from the queue length when the lock is granted.
        A job of k samples holds the lock once but still pays k convoy
        penalties, so batching samples does not dilute contention.
        """
        if not (per_unit >= 0 and units >= 0):
            raise SimulationError(
                f"negative hold: {units} x {per_unit}")
        return (self, per_unit, units)

    def _hold_seconds(self, per_unit: float, units: float) -> float:
        """Hold time of a :meth:`held_for` request granted now."""
        waiters = len(self._waiters)
        if waiters > self.max_convoy_waiters:
            waiters = self.max_convoy_waiters
        return units * (per_unit + waiters * self.convoy_overhead)
