"""A minimal discrete-event simulation kernel.

The kernel follows the simpy model without the dependency: a
:class:`Simulation` owns a priority queue of timestamped events, and a
:class:`Process` wraps a Python generator that ``yield``s events.  When a
yielded event triggers, the process resumes with the event's value.

Only the features the storage/CPU models need are implemented, which keeps
the kernel small enough to test exhaustively:

* :class:`Timeout` -- fires after a simulated delay.
* :class:`Event` -- manually triggered (used by resources and links).
* :class:`Process` -- itself an event that triggers when the generator
  returns, so processes can wait on each other.
* timed holds -- a process may also yield the request built by
  :meth:`repro.sim.resources.Resource.held_for` (or
  :meth:`~repro.sim.resources.Lock.held_for`): acquire a slot, hold it
  for a duration, release it, resume once.
* :func:`all_of` -- barrier over a list of events.

The hot path is deliberately allocation-light: callback lists are created
lazily (most events carry exactly one callback), scheduling is inlined
into :meth:`Event.succeed`/:class:`Timeout` instead of routing through a
helper, and the :meth:`Simulation.run` loop resolves events without a
per-event method-call chain.  A timed hold runs its grant and its timed
half on the process's one reusable wake event, so it allocates no event
and resumes the generator once, yet still resolves the same two kernel
events in the same order as ``acquire()`` followed by a
:class:`Timeout`.  :attr:`Simulation.events_processed` counts
resolved events; because the kernel is deterministic, that counter is a
machine-independent proxy for simulation cost (``make bench-check``).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError

#: Type of the generators that drive processes.  They yield events or
#: timed-hold requests (``Resource.held_for``).
ProcessGenerator = Generator[Any, Any, Any]


class Event:
    """A one-shot occurrence inside a simulation.

    An event starts *pending*, is *triggered* exactly once with a value (or
    an exception), and then runs its callbacks when the simulation processes
    it.  Triggering twice is a bug and raises :class:`SimulationError`.

    ``callbacks`` is ``None`` until the first callback is attached, a bare
    callable while there is exactly one (the overwhelmingly common case,
    so the kernel avoids allocating a list per event), and a list only
    from the second callback on.  Use :meth:`add_callback` rather than
    touching the attribute directly.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered",
                 "_processed")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        #: ``None`` | a single callable | a list of callables.
        self.callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False   # value decided, queued for its timestamp
        self._processed = False   # timestamp reached, callbacks ran

    @property
    def triggered(self) -> bool:
        """Whether the event already fired (value available)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's timestamp has been reached by the clock."""
        return self._processed

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` (upgrading single-callback storage)."""
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` simulated seconds."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        sim = self.sim
        # The delay is checked before any state changes, so a rejected
        # trigger leaves the event pending; the zero-delay branch (every
        # resource grant) pays for no check at all.
        if delay:
            if not delay >= 0:
                raise SimulationError(
                    f"cannot schedule into the past: {delay}")
            self._triggered = True
            self._value = value
            sim._sequence += 1
            heappush(sim._queue, (sim._now + delay, sim._sequence, self))
        else:
            self._triggered = True
            self._value = value
            sim._sequence += 1
            # Same-instant events skip the heap: the run loop merges this
            # FIFO with the heap in exact (timestamp, sequence) order.
            sim._fifo.append((sim._sequence, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay`` seconds."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        sim = self.sim
        if delay:
            if not delay >= 0:
                raise SimulationError(
                    f"cannot schedule into the past: {delay}")
            self._triggered = True
            self._exception = exception
            sim._sequence += 1
            heappush(sim._queue, (sim._now + delay, sim._sequence, self))
        else:
            self._triggered = True
            self._exception = exception
            sim._sequence += 1
            sim._fifo.append((sim._sequence, self))
        return self

    def _resolve(self) -> None:
        """Run callbacks; called by the simulation at the event's timestamp."""
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        elif self._exception is not None:
            # A failure nobody is watching must not vanish.
            raise self._exception


class Timeout(Event):
    """An event that fires automatically after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if not delay >= 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Inlined Event.__init__ + scheduling: timeouts are the single most
        # allocated object in a run, and the super().__init__ chain plus a
        # _schedule call measurably slows the kernel.
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        sim._sequence += 1
        if delay:
            heappush(sim._queue, (sim._now + delay, sim._sequence, self))
        else:
            sim._fifo.append((sim._sequence, self))


class Process(Event):
    """Drives a generator; the process is an event that fires on return.

    The generator yields events, or timed-hold requests: the tuples
    built by :meth:`repro.sim.resources.Resource.held_for`.  A hold is
    served on ``_wake``, the bootstrap event reused: the resource grants
    it in FIFO order (:meth:`~repro.sim.resources.Resource._claim`), the
    grant schedules the timed half on the same event, and the timed half
    releases the slot as it resumes the generator -- two kernel events,
    stamped and sequenced exactly like ``acquire()`` plus a
    :class:`Timeout`, but one generator resume and no event allocated.
    """

    __slots__ = ("_generator", "name", "_resume_cb", "_wake", "_hold",
                 "_granted_cb")

    def __init__(self, sim: "Simulation", generator: ProcessGenerator,
                 name: str = "process"):
        super().__init__(sim)
        self._generator = generator
        self.name = name
        # One bound method per callback for the process lifetime instead
        # of a fresh bound-method object per yielded event.
        self._resume_cb = self._resume
        self._granted_cb = self._granted
        #: The timed-hold request in progress, ``None`` between holds.
        self._hold: Any = None
        # Bootstrap: resume the generator once the simulation starts.
        # The event is then free, and every timed hold reuses it.
        bootstrap = Event(sim)
        bootstrap.callbacks = self._resume_cb
        bootstrap.succeed()
        self._wake = bootstrap

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of the event that fired."""
        hold = self._hold
        if hold is not None:
            # ``event`` is the timed half of a hold: free the slot first,
            # as the ``finally: release()`` of a hand-written hold did.
            self._hold = None
            hold[0].release()
        generator = self._generator
        while True:
            try:
                if event._exception is not None:
                    target = generator.throw(event._exception)
                else:
                    target = generator.send(event._value)
            except StopIteration as stop:
                super().succeed(stop.value)
                return
            except Exception as error:
                # A dying process becomes a *failed* event: watchers
                # (all_of barriers, joining processes) receive the
                # exception through the normal event path; if nobody is
                # watching, the run loop re-raises it as unhandled.
                super().fail(error)
                return
            if type(target) is tuple:
                # A timed hold: queue the wake event as the grant, where
                # acquire() would have queued its grant event.
                try:
                    resource, _, _ = target
                    claim = resource._claim
                except (AttributeError, ValueError):
                    raise SimulationError(
                        f"process {self.name!r} yielded a malformed "
                        f"tuple {target!r}, expected an Event or a "
                        f"timed-hold request") from None
                self._hold = target
                wake = self._wake
                wake.callbacks = self._granted_cb
                if claim(wake):
                    sim = self.sim
                    sim._sequence += 1
                    sim._fifo.append((sim._sequence, wake))
                else:
                    # Queued: release() will succeed() it.
                    wake._triggered = False
                return
            try:
                if target._processed:
                    # The event's timestamp already passed: resume in-line.
                    event = target
                    continue
                callbacks = target.callbacks
            except AttributeError:
                raise SimulationError(
                    f"process {self.name!r} yielded "
                    f"{type(target).__name__}, expected an Event"
                ) from None
            if callbacks is None:
                target.callbacks = self._resume_cb
            elif type(callbacks) is list:
                callbacks.append(self._resume_cb)
            else:
                target.callbacks = [callbacks, self._resume_cb]
            return

    def _granted(self, wake: Event) -> None:
        """The hold's slot was granted: schedule its timed half on ``wake``
        with the next sequence number, as a :class:`Timeout` would be."""
        resource, seconds, units = self._hold
        if units is not None:
            seconds = resource._hold_seconds(seconds, units)
        wake.callbacks = self._resume_cb
        wake._value = None
        sim = self.sim
        sim._sequence += 1
        if seconds:
            heappush(sim._queue, (sim._now + seconds, sim._sequence, wake))
        else:
            sim._fifo.append((sim._sequence, wake))


class _AllOfState:
    """Shared completion state for :func:`all_of` (no per-event closures)."""

    __slots__ = ("barrier", "pending", "remaining")

    def __init__(self, barrier: Event, pending: list[Event]):
        self.barrier = barrier
        self.pending = pending
        self.remaining = len(pending)

    def on_event(self, event: Event) -> None:
        barrier = self.barrier
        if event._exception is not None:
            if not barrier._triggered:
                barrier.fail(event._exception)
            return
        self.remaining -= 1
        if self.remaining == 0 and not barrier._triggered:
            barrier.succeed([item._value for item in self.pending])


def all_of(sim: "Simulation", events: Iterable[Event]) -> Event:
    """Return an event that fires once every event in ``events`` has fired.

    The resulting value is the list of the individual event values in input
    order.  An empty iterable yields an immediately-triggered event.
    """
    pending = list(events)
    barrier = Event(sim)
    if not pending:
        return barrier.succeed([])
    state = _AllOfState(barrier, pending)
    on_event = state.on_event
    for event in pending:
        if event._processed:
            on_event(event)
        else:
            callbacks = event.callbacks
            if callbacks is None:
                event.callbacks = on_event
            elif type(callbacks) is list:
                callbacks.append(on_event)
            else:
                event.callbacks = [callbacks, on_event]
    return barrier


class Simulation:
    """The event loop: a clock plus a priority queue of pending events."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        #: Events triggered with zero delay while the clock sits at _now.
        #: They bypass the heap; the run loop merges both structures in
        #: exact (timestamp, sequence) order, so the fast lane is purely
        #: an allocation/heap-traffic optimisation.
        self._fifo: deque[tuple[int, Event]] = deque()
        self._sequence = 0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events resolved since construction.

        The kernel is deterministic, so for a fixed workload this counter
        is identical across hosts and runs -- the CI perf smoke asserts it
        instead of flaky wall-clock numbers.
        """
        return self._events_processed

    # -- public construction helpers ---------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this simulation."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: str = "process") -> Process:
        """Start a process driven by ``generator``."""
        return Process(self, generator, name=name)

    # -- execution ----------------------------------------------------------

    def _pop_next(self) -> Optional[Event]:
        """Pop the globally next event in (timestamp, sequence) order,
        advancing the clock; ``None`` when both structures are empty."""
        fifo = self._fifo
        queue = self._queue
        if fifo:
            # The heap never holds timestamps below _now, so a heap entry
            # only precedes the FIFO head when it is *at* _now with a
            # smaller sequence number (scheduled earlier).
            if queue:
                head = queue[0]
                if head[0] <= self._now and head[1] < fifo[0][0]:
                    timestamp, _, event = heappop(queue)
                    self._now = timestamp
                    return event
            return fifo.popleft()[1]
        if queue:
            timestamp, _, event = heappop(queue)
            if timestamp < self._now:
                raise SimulationError("time went backwards")
            self._now = timestamp
            return event
        return None

    def step(self) -> None:
        """Process the single next event."""
        event = self._pop_next()
        if event is None:
            raise IndexError("step from an empty simulation")
        self._events_processed += 1
        event._resolve()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Events stamped past ``until`` stay queued; the clock is left at
        ``until`` so a later ``run()`` call continues where this one
        stopped.  Returns the final simulated time.
        """
        queue = self._queue
        fifo = self._fifo
        events_processed = self._events_processed
        try:
            while True:
                # Merge the same-instant FIFO with the heap in exact
                # (timestamp, sequence) order; see _pop_next (inlined here
                # because this loop dominates simulation cost).
                if fifo:
                    if queue:
                        head = queue[0]
                        if head[0] <= self._now and head[1] < fifo[0][0]:
                            event = heappop(queue)[2]
                        else:
                            event = fifo.popleft()[1]
                    else:
                        event = fifo.popleft()[1]
                elif queue:
                    timestamp = queue[0][0]
                    if until is not None and timestamp > until:
                        self._now = until
                        break
                    event = heappop(queue)[2]
                    self._now = timestamp
                else:
                    break
                events_processed += 1
                event._processed = True
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    if type(callbacks) is list:
                        for callback in callbacks:
                            callback(event)
                    else:
                        callbacks(event)
                elif event._exception is not None:
                    # A failure nobody is watching must not vanish.
                    raise event._exception
        finally:
            self._events_processed = events_processed
        return self._now

    def run_process(self, generator: ProcessGenerator,
                    name: str = "main") -> Any:
        """Convenience: start a process, run to completion, return its value.

        Raises :class:`DeadlockError` if the queue drains before the process
        finishes (some event was never triggered).
        """
        process = self.process(generator, name=name)
        self.run()
        if not process.triggered:
            raise DeadlockError(
                f"simulation drained before process {name!r} completed"
            )
        if process._exception is not None:
            raise process._exception
        return process.value
