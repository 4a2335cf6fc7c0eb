"""Max-min fair shared bandwidth links.

A :class:`SharedBandwidth` models a network link or a storage data path:
an aggregate capacity shared by concurrent transfers, where each stream is
additionally capped (Ceph serves a single sequential stream at ~219 MB/s
while eight streams together reach ~910 MB/s -- paper Table 3).

With identical per-stream caps, the max-min fair allocation is uniform::

    rate_per_stream = min(per_stream_cap, aggregate_cap / n_active)

**Virtual progress time.**  Because every active stream runs at the same
fair rate, the *ordering* of transfers by remaining bytes never changes
between arrivals and departures.  The link therefore tracks one cumulative
per-stream progress integral ``P(t)`` (bytes any stream admitted at link
idle would have moved by ``t``) instead of per-transfer remaining counters.
A transfer admitted at progress ``P_a`` with ``nbytes`` to move completes
exactly when ``P(t)`` reaches the fixed threshold ``P_a + nbytes``, so
arrivals and completions are O(log n) min-heap operations -- no rescan of
the active set ever happens on the transfer hot path, and byte accounting
is a closed-form delta over the progress integral.

The link arms a wake-up for the earliest threshold; arrivals that change
the fair rate (or undercut the armed threshold) re-arm it, and superseded
wake-ups are ignored on arrival (identity check).  Concurrency effects (a
slow reader joining speeds nobody up, a finishing reader speeds everyone
up) still emerge naturally in simulated time, matching the historical
O(n) rescan implementation: completion times agree to float accuracy
(pinned by the differential suite in tests/sim/test_bandwidth_diff.py),
and all golden outputs are byte-identical.  The one intended departure
is batch grouping at tens-of-GB progress, where the old per-transfer
counters' rounding drift exceeded their own epsilon -- see
docs/performance.md.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Simulation, Timeout

#: Transfers whose remaining volume drops below this are considered done.
#: Also the batch-completion window: thresholds within epsilon of the
#: earliest one finish on the same wake-up (equal-size streams admitted
#: together complete together, exactly like the historical rescan).
_EPSILON_BYTES = 1e-6

#: heap-entry admission-order key (entries are (threshold, admission,
#: admitted_progress, nbytes, event, tag) tuples).
_BY_ADMISSION = itemgetter(1)

#: Tag-then-admission key for batches of simultaneous completions
#: (untagged transfers sort first, amongst themselves by admission).
_BY_TAG = itemgetter(5, 1)


def _check_bandwidth(which: str, bandwidth: float) -> None:
    """Reject a non-positive, NaN or boolean link capacity."""
    if isinstance(bandwidth, bool) or not bandwidth > 0:
        raise SimulationError(
            f"{which} bandwidth must be positive, got {bandwidth!r}")


class SharedBandwidth:
    """A capacity-shared link with per-stream caps and max-min fairness.

    Counter semantics (explicit, and pinned by tests):

    * ``total_transfers`` counts every :meth:`transfer` call, including
      zero-byte transfers that complete instantly.
    * ``peak_streams`` is the maximum number of *simultaneously active*
      streams; zero-byte transfers never become active and do not touch it.
    * ``bytes_moved`` is the cumulative payload moved over the link,
      including the pro-rata progress of in-flight transfers at the
      current simulated time; zero-byte transfers contribute nothing.

    A batch of mathematically simultaneous finishes (equal thresholds
    up to float rounding -- the knife-edge page-cache-thrash regime of
    docs/performance.md) completes in ``(tag, admission)`` order, where
    the tag is the caller-supplied :meth:`transfer` label.  Untagged
    transfers therefore complete in arrival order, matching the
    historical active-list rescan; a caller that tags transfers with a
    stable identity (the serve layer's tenant id) pins the outcome of
    knife-edge scenarios to that identity instead of float ulps, so it
    stays reproducible under future kernel changes.
    """

    __slots__ = ("sim", "name", "aggregate_bw", "per_stream_bw", "_heap",
                 "_admissions", "_progress", "_last_update", "_rate",
                 "_wake_event", "_wake_threshold", "_wake_cb",
                 "_completed_bytes", "_admit_sum", "total_transfers",
                 "peak_streams", "_fault")

    def __init__(self, sim: Simulation, aggregate_bw: float,
                 per_stream_bw: Optional[float] = None, name: str = "link"):
        _check_bandwidth("aggregate", aggregate_bw)
        if per_stream_bw is not None:
            _check_bandwidth("per-stream", per_stream_bw)
        self.sim = sim
        self.name = name
        self.aggregate_bw = float(aggregate_bw)
        self.per_stream_bw = float(per_stream_bw or aggregate_bw)
        #: Min-heap of (threshold, admission, admitted_progress, nbytes,
        #: event, tag); the head is the next transfer to complete.
        self._heap: list[tuple] = []
        self._admissions = 0
        #: The per-stream progress integral P(t), rebased to 0 whenever
        #: the link drains (keeps thresholds well inside float precision).
        self._progress = 0.0
        self._last_update = 0.0
        #: Fair per-stream rate while the current active set lasts.
        self._rate = 0.0
        #: The armed wake-up; wake-ups superseded by re-arming are ignored.
        self._wake_event: Optional[Event] = None
        self._wake_threshold = 0.0
        self._wake_cb = self._on_wake
        self._completed_bytes = 0.0
        #: Sum of admitted_progress over active transfers (closed-form
        #: in-flight byte accounting without touching each transfer).
        self._admit_sum = 0.0
        self.total_transfers = 0
        self.peak_streams = 0
        #: When set (a ``nbytes -> Exception`` factory), new transfers
        #: fail immediately -- the storage-blackout mode of the chaos
        #: engine (:mod:`repro.faults`).  ``None`` is the fast path.
        self._fault = None

    # -- queries -------------------------------------------------------------

    @property
    def active_streams(self) -> int:
        """Number of in-flight transfers."""
        return len(self._heap)

    def stream_rate(self, n_active: Optional[int] = None) -> float:
        """Fair per-stream rate for ``n_active`` concurrent streams."""
        n = len(self._heap) if n_active is None else n_active
        if n <= 0:
            return 0.0
        return min(self.per_stream_bw, self.aggregate_bw / n)

    def current_throughput(self) -> float:
        """Instantaneous aggregate throughput in bytes/second."""
        return self.stream_rate() * len(self._heap)

    @property
    def bytes_moved(self) -> float:
        """Cumulative bytes moved, including in-flight progress to now."""
        n = len(self._heap)
        if n == 0:
            return self._completed_bytes
        progress = self._progress + (
            (self.sim._now - self._last_update) * self._rate)
        return self._completed_bytes + n * progress - self._admit_sum

    # -- transfer lifecycle ----------------------------------------------------

    def transfer(self, nbytes: float, tag: str = "") -> Event:
        """Start moving ``nbytes``; the returned event fires on completion.

        ``tag`` orders the transfer within a batch of simultaneous
        completions; untagged transfers share the empty label and fall
        back to admission order among themselves.
        """
        if not nbytes >= 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        event = Event(self.sim)
        self.total_transfers += 1
        if self._fault is not None:
            return event.fail(self._fault(nbytes))
        if nbytes <= _EPSILON_BYTES:
            return event.succeed()
        now = self.sim._now
        elapsed = now - self._last_update
        if elapsed > 0.0 and self._rate:
            self._progress += elapsed * self._rate
        self._last_update = now
        admit = self._progress
        threshold = admit + nbytes
        self._admissions += 1
        heap = self._heap
        heappush(heap, (threshold, self._admissions, admit, nbytes, event,
                        tag))
        self._admit_sum += admit
        n = len(heap)
        if n > self.peak_streams:
            self.peak_streams = n
        rate = self.aggregate_bw / n
        per_stream = self.per_stream_bw
        if per_stream < rate:
            rate = per_stream
        if (rate != self._rate or self._wake_event is None
                or heap[0][0] < self._wake_threshold):
            # The fair share changed or this transfer finishes before the
            # armed wake-up: re-arm.  Otherwise the pending wake-up still
            # targets the correct earliest completion and arrival is O(log n)
            # with no new event scheduled at all.
            self._rate = rate
            self._arm_wake()
        return event

    # -- degradation (chaos engine) -----------------------------------------

    def set_capacity(self, aggregate_bw: Optional[float] = None,
                     per_stream_bw: Optional[float] = None) -> None:
        """Change the link's capacity mid-simulation (fault injection).

        Progress accrued at the old fair rate is banked first, so every
        in-flight transfer keeps the bytes it already moved; thresholds
        live in progress (byte) space and need no rewrite.  When the
        fair rate changes with transfers in flight, the wake-up is
        re-armed (one Timeout).  Never calling this method costs
        nothing: the constructor wires no degradation state and the
        transfer hot path is untouched.
        """
        if aggregate_bw is not None:
            _check_bandwidth("aggregate", aggregate_bw)
        if per_stream_bw is not None:
            _check_bandwidth("per-stream", per_stream_bw)
        now = self.sim._now
        elapsed = now - self._last_update
        if elapsed > 0.0 and self._rate:
            self._progress += elapsed * self._rate
        self._last_update = now
        if aggregate_bw is not None:
            self.aggregate_bw = float(aggregate_bw)
        if per_stream_bw is not None:
            self.per_stream_bw = float(per_stream_bw)
        heap = self._heap
        if not heap:
            return
        rate = self.aggregate_bw / len(heap)
        per_stream = self.per_stream_bw
        if per_stream < rate:
            rate = per_stream
        if rate != self._rate:
            self._rate = rate
            self._arm_wake()

    def set_fault(self, factory) -> None:
        """Blackout mode: fail new transfers with ``factory(nbytes)``."""
        self._fault = factory

    def clear_fault(self) -> None:
        """Leave blackout mode; new transfers move bytes again."""
        self._fault = None

    def abort_active(self, factory) -> int:
        """Fail every in-flight transfer with a ``factory(nbytes)``
        exception, in admission order; returns the abort count.

        The blackout shape of the chaos engine: waiting processes
        receive the exception at the current instant and the link is
        left idle (progress rebased to zero).  The partial progress of
        aborted transfers is discarded from ``bytes_moved`` -- those
        bytes died with their transfers.
        """
        heap = self._heap
        if not heap:
            return 0
        aborted = sorted(heap, key=_BY_ADMISSION)
        heap.clear()
        self._progress = 0.0
        self._last_update = self.sim._now
        self._admit_sum = 0.0
        self._rate = 0.0
        self._wake_event = None
        for item in aborted:
            item[4].fail(factory(item[3]))
        return len(aborted)

    # -- internals ----------------------------------------------------------

    def _arm_wake(self) -> None:
        """Arm a wake-up for the earliest completion under current rates."""
        threshold = self._heap[0][0]
        delay = (threshold - self._progress) / self._rate
        if delay < 0.0:
            delay = 0.0
        wake = Timeout(self.sim, delay)
        wake.callbacks = self._wake_cb
        self._wake_event = wake
        self._wake_threshold = threshold

    def _on_wake(self, event: Event) -> None:
        if event is not self._wake_event:
            return  # A later arrival re-armed the wake-up; this one is stale.
        now = self.sim._now
        elapsed = now - self._last_update
        if elapsed > 0.0:
            self._progress += elapsed * self._rate
        self._last_update = now
        heap = self._heap
        target = heap[0][0]
        if self._progress < target:
            # The wake-up was armed for the head's completion, so the head
            # *is* done now.  Snapping the integral forward also guarantees
            # progress when the residual delay underflows the clock's
            # resolution (now + delay == now for sub-femtosecond residues
            # late in long simulations).
            self._progress = target
        # Batch window: epsilon in *remaining-bytes* space plus a relative
        # term covering float rounding of the thresholds themselves.  On a
        # link that never drains, the progress integral grows to tens of
        # GB, where one ulp exceeds the absolute epsilon -- without the
        # relative term, mathematically simultaneous completions would
        # split into separate wake-ups.
        cutoff = target + _EPSILON_BYTES + target * 1e-12
        finished = [heappop(heap)]
        while heap and heap[0][0] <= cutoff:
            finished.append(heappop(heap))
        if len(finished) > 1:
            # Complete batches in (tag, admission) order: untagged
            # batches match the historical active-list scan; tags pin
            # knife-edge scenarios to stable identities.  Heap order
            # would rank ulp-level threshold differences above either.
            finished.sort(key=_BY_TAG)
        completed = self._completed_bytes
        admit_sum = self._admit_sum
        for item in finished:
            completed += item[3]
            admit_sum -= item[2]
            item[4].succeed()
        self._completed_bytes = completed
        n = len(heap)
        if n == 0:
            # Idle: rebase the progress integral so thresholds stay small
            # and float resolution never degrades over long simulations.
            self._progress = 0.0
            self._admit_sum = 0.0
            self._rate = 0.0
            self._wake_event = None
            return
        self._admit_sum = admit_sum
        rate = self.aggregate_bw / n
        per_stream = self.per_stream_bw
        if per_stream < rate:
            rate = per_stream
        self._rate = rate
        self._arm_wake()
