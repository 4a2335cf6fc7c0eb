"""The control plane: a dispatcher in front of the preprocessing service.

:class:`Dispatcher` extends :class:`~repro.serve.service.PreprocessingService`
with the online control loop a production deployment needs and a batch
replay does not:

* **submit / cancel / retry** -- jobs enter through an API instead of a
  fixed trace; cancellations land at the next safe point (queue removal,
  or the next epoch boundary once running); dead-lettered jobs can be
  resubmitted.
* **execution ledger** -- every lifecycle transition is validated
  against the transition table and appended to an
  :class:`~repro.ctl.ledger.ExecutionLedger` with the simulation clock;
  subscribers see each entry as it happens.
* **retry with exponential backoff** -- a crashed attempt waits
  ``backoff(n)`` simulated seconds and re-enters admission; once the
  :class:`~repro.ctl.retry.RetryPolicy` budget is exhausted the job
  moves to the dead-letter queue.
* **per-tenant admission control** -- at most ``admission_limit`` jobs
  of one tenant may hold or queue for slots at once; later submissions
  wait at the admission gate (FIFO per tenant).
* **preemption** -- when jobs wait and every slot is busy, the
  scheduler policy's ``preempt`` hook may pick a running victim; it is
  interrupted at its next epoch boundary, requeued, and later resumes
  from the interrupted epoch (the offline artifact is not redone).
* **autoscaling** -- a periodic control loop tests the live run for
  the doctor's queue pressure (``serve.doctor.queue_pressure``) and
  grows the slot pool under it (up to ``max_slots``) or shrinks it
  when capacity idles.

Everything runs co-simulated on the DES kernel: given one seed the
ledger, the report and the event count are bit-identical across runs.
With every feature disabled the dispatcher adds **zero** simulation
events, so a control run degenerates to exactly a ``presto serve`` run
-- the differential test in ``tests/ctl`` pins that equivalence
byte-for-byte.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from dataclasses import dataclass

from repro.errors import ControlError, InjectedFaultError, SimulationError
from repro.faults.gate import slo_shed_decision
from repro.serve.doctor import queue_pressure
from repro.serve.jobs import JobSpec
from repro.serve.service import (PreprocessingService, ServiceState,
                                 TenantJob)
from repro.sim.events import Event
from repro.ctl import ledger as lifecycle
from repro.ctl.ledger import (ADMITTED, DEADLETTER, PENDING, RUNNING,
                              TERMINAL_STATES, DeadLetter, ExecutionLedger,
                              LedgerEntry)
from repro.ctl.report import AutoscaleEvent, ControlReport, JobRecord
from repro.ctl.retry import RetryPolicy

#: Sentinel delivered through a queued job's grant event on cancellation.
_CANCELLED = object()


class _Interrupted(Exception):
    """Raised at an epoch boundary to interrupt a running attempt."""

    def __init__(self, kind: str, epoch: int, reason: str = ""):
        super().__init__(reason or kind)
        self.kind = kind
        self.epoch = epoch
        self.reason = reason


@dataclass(frozen=True)
class AutoscaleConfig:
    """Bounds and cadence of the slot autoscaler."""

    min_slots: int = 1
    max_slots: int = 8
    interval: float = 600.0

    def __post_init__(self):
        if not self.min_slots >= 1:
            raise ControlError(
                f"autoscale.min_slots must be >= 1, got {self.min_slots!r}")
        if not self.max_slots >= self.min_slots:
            raise ControlError(
                f"autoscale.max_slots ({self.max_slots!r}) must be >= "
                f"min_slots ({self.min_slots!r})")
        if not self.interval > 0:
            raise ControlError(
                f"autoscale.interval must be positive, "
                f"got {self.interval!r}")

    def describe(self) -> str:
        return (f"[{self.min_slots}, {self.max_slots}] slots, "
                f"tick {self.interval:g}s")


class Dispatcher(PreprocessingService):
    """Submit/cancel/retry control plane over the preprocessing service."""

    def __init__(self, policy="fifo", slots: int = 2,
                 environment=None,
                 tie_break: str = "arrival",
                 retry: Optional[RetryPolicy] = None,
                 admission_limit: Optional[int] = None,
                 preempt: bool = False,
                 autoscale: Optional[AutoscaleConfig] = None,
                 metrics=None, tracer=None, faults=None,
                 checkpoint_epochs: int = 0,
                 shed_slo: bool = False):
        super().__init__(policy=policy, slots=slots,
                         environment=environment,
                         tie_break=tie_break, metrics=metrics,
                         tracer=tracer, faults=faults)
        if checkpoint_epochs < 0:
            raise ControlError(
                f"checkpoint_epochs must be >= 0 (0 = no checkpoints, "
                f"historical free resume), got {checkpoint_epochs!r}")
        #: Checkpoint interval in epochs.  ``0`` keeps the historical
        #: model: preemption resumes at the interrupted epoch for free
        #: and a crash restarts from scratch.  ``k >= 1`` charges the
        #: checkpoint-aware recovery cost instead: both interruption
        #: kinds resume from the last multiple of ``k`` and the epochs
        #: in between are replayed (counted in ``JobRecord.lost_epochs``).
        self.checkpoint_epochs = checkpoint_epochs
        #: SLO-aware admission shedding: under degraded capacity, a job
        #: whose analytic epoch bound already violates its SLO is
        #: cancelled at admission instead of burning a slot.  Needs a
        #: fault plan (the stretch comes from the chaos engine).
        self.shed_slo = bool(shed_slo)
        self.retry_policy = retry if retry is not None else RetryPolicy()
        if admission_limit is not None and not admission_limit >= 1:
            raise ControlError(
                f"admission_limit must be >= 1 (or None for unlimited), "
                f"got {admission_limit!r}")
        self.admission_limit = admission_limit
        self.preempt_enabled = bool(preempt)
        if autoscale is not None and not (
                autoscale.min_slots <= slots <= autoscale.max_slots):
            raise ControlError(
                f"slots ({slots}) outside autoscale bounds "
                f"{autoscale.describe()}")
        self.autoscale = autoscale
        #: Lifecycle feed; populated per run, callbacks persist.
        self.ledger: Optional[ExecutionLedger] = None
        self._subscribers: list[Callable[[LedgerEntry], None]] = []
        self._autoscale_subscribers: list[Callable[[AutoscaleEvent],
                                                   None]] = []
        self._next_index = 0
        self._pending_submissions: list[tuple[str, JobSpec]] = []
        self._pending_cancels: list[tuple[str, float]] = []
        self._pending_parents: dict[str, str] = {}
        # Per-run control state, initialised in run().
        self._records: dict[str, JobRecord] = {}
        self._by_job: dict[int, JobRecord] = {}
        self._inflight: dict[str, int] = {}
        self._admission_waiters: dict[str, list[Event]] = {}
        self._dead: list[DeadLetter] = []
        self._autoscale_log: list[AutoscaleEvent] = []
        self._active = 0

    # -- submission API ------------------------------------------------------

    def submit(self, spec: JobSpec, parent: Optional[str] = None) -> str:
        """Queue ``spec`` for the next :meth:`run`; returns its job id."""
        job_id = f"job-{self._next_index:03d}"
        self._next_index += 1
        self._pending_submissions.append((job_id, spec))
        if parent is not None:
            self._pending_parents[job_id] = parent
        return job_id

    def cancel(self, job_id: str, at: float = 0.0) -> None:
        """Request cancellation of ``job_id`` at simulated time ``at``.

        Called before :meth:`run`, the request is scheduled into the
        next run; called during a run (from a ledger subscriber), it
        takes effect at the current simulation instant.  Cancelling a
        terminal job is a no-op; a running job is interrupted at its
        next epoch boundary, so a job inside its final epoch may still
        complete.
        """
        if not at >= 0:
            raise ControlError(f"cancel time must be >= 0, got {at!r}")
        record = self._records.get(job_id)
        if record is not None and self._sim is not None:
            self._request_cancel(record)
            return
        self._pending_cancels.append((job_id, at))

    def retry(self, job_id: str) -> str:
        """Resubmit a dead-lettered job for the next run."""
        if self.ledger is None or self.ledger.state(job_id) != DEADLETTER:
            raise ControlError(
                f"only dead-lettered jobs can be retried; "
                f"{job_id!r} is in state "
                f"{self.ledger.state(job_id) if self.ledger else 'NEW'!r}")
        record = self._records[job_id]
        new_id = self.submit(record.spec)
        self._pending_parents[new_id] = job_id
        return new_id

    def subscribe(self, callback: Callable[[LedgerEntry], None]) -> None:
        """Receive every job-lifecycle ledger entry of future runs."""
        self._subscribers.append(callback)

    def subscribe_autoscale(self, callback: Callable[[AutoscaleEvent],
                                                     None]) -> None:
        """Receive every autoscale action as it happens (live dashboard)."""
        self._autoscale_subscribers.append(callback)

    # -- the run -------------------------------------------------------------

    def run(self, jobs: Sequence[JobSpec] = ()) -> ControlReport:
        """Simulate pending submissions plus ``jobs``; control report."""
        submissions = list(self._pending_submissions)
        self._pending_submissions = []
        for spec in jobs:
            job_id = f"job-{self._next_index:03d}"
            self._next_index += 1
            submissions.append((job_id, spec))
        if not submissions:
            raise ControlError("cannot run an empty control trace")
        records = [JobRecord(job_id=job_id,
                             job=TenantJob(spec=spec,
                                           plan=spec.resolve_plan(),
                                           config=spec.run_config()),
                             parent=self._pending_parents.pop(job_id, None))
                   for job_id, spec in submissions]
        initial_slots = self.slots
        tenant_jobs = [record.job for record in records]
        self._reset(tenant_jobs)
        self.ledger = ExecutionLedger()
        for callback in self._subscribers:
            self.ledger.subscribe(callback)
        self.ledger.subscribe(self._on_entry)
        if self.tracer is not None:
            self.ledger.subscribe(self._trace_entry)
        self._records = {record.job_id: record for record in records}
        self._by_job = {id(record.job): record for record in records}
        self._inflight = {}
        self._admission_waiters = {}
        self._dead = []
        self._autoscale_log = []
        self._active = len(records)
        sim = self._sim
        self._set_baselines(tenant_jobs)
        self._tenants = sorted({job.spec.tenant for job in tenant_jobs})
        processes = [sim.process(self._control_process(record),
                                 name=record.job_id)
                     for record in records]
        pending_cancels, self._pending_cancels = self._pending_cancels, []
        for job_id, at in pending_cancels:
            record = self._records.get(job_id)
            if record is None:
                raise ControlError(
                    f"cancel of unknown job {job_id!r}; known: "
                    f"{sorted(self._records)}")
            sim.process(self._cancel_process(record, at),
                        name=f"cancel-{job_id}")
        if self.autoscale is not None:
            sim.process(self._autoscale_process(), name="autoscaler")
        try:
            self._runtime.run(processes, self._telemetry_live,
                              self._sample_metrics)
            stuck = [record.job_id for record in records
                     if self.ledger.state(record.job_id)
                     not in TERMINAL_STATES]
            if stuck:
                raise SimulationError(
                    f"jobs finished outside a terminal state: {stuck}")
            service = self._report(tenant_jobs)
        finally:
            # Autoscaled slots last one run, also when the run raises.
            final_slots, self.slots = self.slots, initial_slots
        return ControlReport(
            service=service, ledger=self.ledger, retry=self.retry_policy,
            records=records, dead_letters=list(self._dead),
            autoscale_log=list(self._autoscale_log),
            initial_slots=initial_slots, final_slots=final_slots)

    # -- the per-job control process -----------------------------------------

    def _control_process(self, record: JobRecord
                         ) -> Generator[Event, None, None]:
        sim = self._sim
        job = record.job
        spec = job.spec
        if spec.arrival > 0:
            yield sim.timeout(spec.arrival)
        self._note(record, lifecycle.SUBMIT, detail=f"tenant {spec.tenant}")
        while True:
            if record.cancel_requested:
                self._conclude_cancel(record, "before admission")
                return
            admitted = yield from self._admission_gate(record)
            if not admitted:
                self._conclude_cancel(record, "awaiting admission")
                return
            shed_reason = self._shed_decision(record)
            if shed_reason is not None:
                record.shed = True
                job.finished = sim.now
                self._note(record, lifecycle.CANCEL, detail=shed_reason)
                return
            tenant = spec.tenant
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
            record.attempt += 1
            self._note(record, lifecycle.ADMIT)
            job.arrival = sim.now
            self._enqueue(job)
            granted = yield job.grant_event
            if granted is _CANCELLED:
                job.finished = sim.now
                self._end_attempt(tenant)
                self._conclude_cancel(record, "in queue")
                return
            job.granted = sim.now
            self._note(record, lifecycle.START)
            interrupt: Optional[_Interrupted] = None
            try:
                yield from self._execute(job,
                                         start_epoch=record.resume_epoch)
            except _Interrupted as stop:
                interrupt = stop
            except InjectedFaultError as fault:
                # A blackout window failed this attempt's transfers; the
                # unwind lands here and becomes an ordinary crashed
                # attempt on the retry path.
                interrupt = _Interrupted(lifecycle.FAIL,
                                         record.current_epoch, str(fault))
            finally:
                job.finished = sim.now
                self._release(job)
                self._end_attempt(tenant)
            if interrupt is None:
                self._note(record, lifecycle.SUCCEED)
                return
            if interrupt.kind == lifecycle.CANCEL:
                self._note(record, lifecycle.CANCEL,
                           detail=interrupt.reason)
                return
            if interrupt.kind == lifecycle.PREEMPT:
                record.preemptions += 1
                record.preempt_requested = False
                record.resume_epoch = self._resume_epoch(
                    record, interrupt.epoch, crashed=False)
                detail = f"at epoch {interrupt.epoch}"
                if record.resume_epoch != interrupt.epoch:
                    detail += f", resume from {record.resume_epoch}"
                self._note(record, lifecycle.PREEMPT, detail=detail)
                self._note(record, lifecycle.REQUEUE)
                continue
            # A crashed attempt: retry after backoff, or dead-letter.
            record.failures += 1
            record.resume_epoch = self._resume_epoch(
                record, interrupt.epoch, crashed=True)
            self._note(record, lifecycle.FAIL, detail=interrupt.reason)
            if not self.retry_policy.should_retry(record.failures):
                self._note(record, lifecycle.EXHAUST,
                           detail=f"{record.failures} failed attempt(s)")
                self._dead.append(DeadLetter(
                    job_id=record.job_id, tenant=tenant,
                    attempts=record.failures, reason=interrupt.reason))
                return
            delay = self.retry_policy.backoff(record.failures)
            detail = f"backoff {delay:g}s"
            engine = self._runtime.fault_engine
            if engine is not None:
                # Retrying into an active brownout burns attempts;
                # stretch the wait past the window's end instead.
                stretched = engine.stretch_backoff(sim.now, delay)
                if stretched != delay:
                    detail = (f"backoff {delay:g}s stretched to "
                              f"{stretched:g}s (brownout active)")
                    delay = stretched
            if delay > 0:
                yield sim.timeout(delay)
            record.retries += 1
            self._note(record, lifecycle.RETRY, detail=detail)

    def _admission_gate(self, record: JobRecord
                        ) -> Generator[Event, None, bool]:
        """Wait until the per-tenant in-flight limit allows admission.

        With no limit configured this neither yields nor creates events
        -- the differential guarantee.  Returns ``False`` if the job
        was cancelled while waiting.
        """
        limit = self.admission_limit
        if limit is None:
            return True
        tenant = record.job.spec.tenant
        while self._inflight.get(tenant, 0) >= limit:
            waiter = self._sim.event()
            record.admission_waiter = waiter
            self._admission_waiters.setdefault(tenant, []).append(waiter)
            yield waiter
            record.admission_waiter = None
            if record.cancel_requested:
                return False
        return True

    def _shed_decision(self, record: JobRecord) -> Optional[str]:
        """SLO-aware admission shed: reason string, or ``None`` to admit.

        Pure computation over the chaos engine's current capacity
        stretch -- never yields, so with shedding off (or no faults) the
        admission path is byte-identical to the historical one.
        """
        engine = self._runtime.fault_engine
        if not self.shed_slo or engine is None:
            return None
        job = record.job
        slo = job.slo_seconds
        if slo is None or job.baseline_epoch_seconds is None:
            return None
        return slo_shed_decision(job.baseline_epoch_seconds, slo,
                                 engine.capacity_stretch())

    def _resume_epoch(self, record: JobRecord, epoch: int,
                      crashed: bool) -> int:
        """Where the next attempt resumes, charging checkpoint replay.

        With ``checkpoint_epochs == 0`` this is the historical model
        (free resume at the interrupted epoch; crashes restart from 0).
        With an interval ``k`` both interruption kinds fall back to the
        last checkpoint ``(epoch // k) * k`` and the finished epochs
        past it count as lost work to be replayed.
        """
        interval = self.checkpoint_epochs
        if interval <= 0:
            return 0 if crashed else epoch
        checkpoint = (epoch // interval) * interval
        record.lost_epochs += epoch - checkpoint
        return checkpoint

    def _end_attempt(self, tenant: str) -> None:
        """Release the tenant's admission share and wake one waiter."""
        self._inflight[tenant] -= 1
        waiters = self._admission_waiters.get(tenant)
        if waiters:
            waiters.pop(0).succeed()

    # -- cancellation --------------------------------------------------------

    def _cancel_process(self, record: JobRecord, at: float
                        ) -> Generator[Event, None, None]:
        if at > 0:
            yield self._sim.timeout(at)
        self._request_cancel(record)

    def _request_cancel(self, record: JobRecord) -> None:
        state = self.ledger.state(record.job_id)
        if state in TERMINAL_STATES:
            return
        record.cancel_requested = True
        job = record.job
        if state == ADMITTED and job in self._queue:
            # Still waiting for a slot: remove and wake with the sentinel.
            self._queue.remove(job)
            job.grant_event.succeed(_CANCELLED)
        elif state == PENDING and record.admission_waiter is not None:
            waiter = record.admission_waiter
            self._admission_waiters[job.spec.tenant].remove(waiter)
            waiter.succeed()
        # Otherwise (pre-submit, running, or backing off) the flag is
        # honoured at the next control point: loop top, epoch boundary,
        # or post-backoff re-admission.

    def _conclude_cancel(self, record: JobRecord, where: str) -> None:
        record.job.finished = self._sim.now
        self._note(record, lifecycle.CANCEL, detail=where)

    # -- hooks into the service ----------------------------------------------

    def _before_epoch(self, job: TenantJob, epoch: int) -> None:
        record = self._by_job.get(id(job))
        if record is None:
            return
        record.current_epoch = epoch
        if record.cancel_requested:
            raise _Interrupted(lifecycle.CANCEL, epoch,
                               f"running, at epoch {epoch}")
        if record.preempt_requested and epoch > 0:
            # Epoch 0 is never preempted: the offline phase just ran
            # and a resume at 0 would redo nothing anyway.
            raise _Interrupted(lifecycle.PREEMPT, epoch)
        spec = job.spec
        if (spec.crash_epoch is not None and epoch == spec.crash_epoch
                and record.attempt <= spec.crash_attempts):
            raise _Interrupted(
                lifecycle.FAIL, epoch,
                f"injected crash at epoch {epoch} "
                f"(attempt {record.attempt})")
        if self.fault_plan:
            window = self.fault_plan.crash_active(self._sim.now)
            if window is not None:
                raise _Interrupted(
                    lifecycle.FAIL, epoch,
                    f"crash window [{window.start:g}s, {window.end:g}s) "
                    f"hit at epoch {epoch}")

    def _dispatch(self) -> None:
        super()._dispatch()
        if not (self.preempt_enabled and self._queue and self._running
                and self._free_slots == 0):
            return
        state = ServiceState(self)
        victim = self.policy.preempt(tuple(self._queue), state)
        if victim is None:
            return
        record = self._by_job.get(id(victim))
        if (record is None or record.preempt_requested
                or record.cancel_requested
                or self.ledger.state(record.job_id) != RUNNING):
            return
        record.preempt_requested = True

    def _on_entry(self, entry: LedgerEntry) -> None:
        if entry.to_state in TERMINAL_STATES:
            self._active -= 1

    # -- telemetry (repro.obs) -----------------------------------------------

    def _telemetry_live(self) -> bool:
        """Sampler liveness: the control plane tracks non-terminal jobs
        (a job can be live without occupying the serve-layer queue)."""
        return self._active > 0

    def _sample_metrics(self, registry) -> None:
        super()._sample_metrics(registry)
        counts = self.ledger.counts() if self.ledger is not None else {}
        for state in lifecycle.STATES:
            registry.gauge(f"ledger.{state}").set(counts.get(state, 0))
        registry.gauge("dlq.depth").set(len(self._dead))
        registry.gauge("slots.total").set(self.slots)

    def _trace_entry(self, entry: LedgerEntry) -> None:
        """Ledger subscriber: one instant trace event per transition."""
        self.tracer.instant(
            f"{entry.job_id} {entry.event}", "ledger", "ledger",
            entry.time,
            args={"job": entry.job_id, "attempt": entry.attempt,
                  "from": entry.from_state, "to": entry.to_state,
                  "detail": entry.detail})

    def _note(self, record: JobRecord, event: str,
              detail: str = "") -> None:
        self.ledger.record(record.job_id, event, self._sim.now,
                           attempt=max(record.attempt, 1), detail=detail)

    # -- autoscaling ---------------------------------------------------------

    def _autoscale_process(self) -> Generator[Event, None, None]:
        sim = self._sim
        interval = self.autoscale.interval
        while self._active > 0:
            yield sim.timeout(interval)
            if self._active == 0:
                return
            self._autoscale_tick()

    def _autoscale_tick(self) -> None:
        config = self.autoscale
        granted = [record.job for record in self._records.values()
                   if record.job.granted is not None]
        pressure = (queue_pressure(granted, self._sim.now) is not None
                    or len(self._queue) >= max(self.slots, 1))
        if pressure and self.slots < config.max_slots:
            self._set_slots(self.slots + 1, "queue-pressure")
        elif (not pressure and not self._queue and self._free_slots > 0
              and self.slots > config.min_slots):
            self._set_slots(self.slots - 1, "idle-capacity")

    def _set_slots(self, new_slots: int, reason: str) -> None:
        old = self.slots
        self._free_slots += new_slots - old
        self.slots = new_slots
        event = AutoscaleEvent(
            time=self._sim.now, old_slots=old, new_slots=new_slots,
            reason=reason)
        self._autoscale_log.append(event)
        for callback in self._autoscale_subscribers:
            callback(event)
        if new_slots > old:
            self._dispatch()
