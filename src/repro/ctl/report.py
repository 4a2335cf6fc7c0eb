"""Control-plane run records and report rendering.

A :class:`ControlReport` wraps the underlying
:class:`~repro.serve.service.ServiceReport` (the resource view -- what
the cluster did) with the control view: the execution ledger, per-job
outcome records, the dead-letter queue and the autoscaler's adjustment
log.  When every control feature is off the service view is *exactly*
what ``presto serve`` would have produced -- the differential test in
``tests/ctl`` holds the two byte-for-byte equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.frame import Frame
from repro.units import fmt_duration
from repro.ctl.ledger import (CANCELLED, DEADLETTER, ExecutionLedger,
                              SUCCEEDED, DeadLetter)
from repro.ctl.retry import RetryPolicy
from repro.serve.service import ServiceReport, TenantJob


@dataclass
class JobRecord:
    """Control-plane bookkeeping for one submitted job.

    ``attempt`` counts execution attempts started (admissions),
    ``failures`` counts attempts that crashed, ``retries`` counts
    post-backoff re-executions and ``preemptions`` epoch-boundary
    interruptions.  ``job`` is the live runtime state shared with the
    underlying service simulation.
    """

    job_id: str
    job: TenantJob
    attempt: int = 0
    failures: int = 0
    retries: int = 0
    preemptions: int = 0
    resume_epoch: int = 0
    #: Epoch boundary the running attempt last reached (the blackout
    #: unwind path cannot see the epoch loop, only the record).
    current_epoch: int = 0
    #: Epochs of finished work re-run because an interruption landed
    #: past the last checkpoint (checkpoint-aware resume cost).
    lost_epochs: int = 0
    #: Cancelled by the SLO-aware admission gate under degraded
    #: capacity, before burning a slot on guaranteed-late work.
    shed: bool = False
    cancel_requested: bool = False
    preempt_requested: bool = False
    admission_waiter: Optional[object] = None
    #: Job id this record retries (set by ``Dispatcher.retry``).
    parent: Optional[str] = None

    @property
    def spec(self):
        return self.job.spec

    def to_record(self, ledger: ExecutionLedger) -> dict:
        """One per-job row of the control report frame."""
        return {
            "job": self.job_id,
            "tenant": self.spec.tenant,
            "pipeline": self.spec.pipeline,
            "strategy": self.spec.split,
            "state": ledger.state(self.job_id),
            "attempts": max(self.attempt, 1),
            "failures": self.failures,
            "retries": self.retries,
            "preempts": self.preemptions,
            "epochs_done": len(self.job.epochs),
            "finished_s": (self.job.finished
                           if self.job.finished is not None else 0.0),
        }


@dataclass(frozen=True)
class AutoscaleEvent:
    """One slot-count adjustment made by the autoscaler."""

    time: float
    old_slots: int
    new_slots: int
    reason: str

    def describe(self) -> str:
        return (f"t={self.time:.0f}s {self.old_slots}->{self.new_slots} "
                f"slot(s) ({self.reason})")


@dataclass
class ControlReport:
    """Everything one control-plane run produced.

    ``service`` is the resource view (identical to a plain
    ``PreprocessingService`` report when no control feature fired);
    ``ledger`` is the authoritative lifecycle history.
    """

    service: ServiceReport
    ledger: ExecutionLedger
    retry: RetryPolicy
    records: list[JobRecord] = field(default_factory=list)
    dead_letters: list[DeadLetter] = field(default_factory=list)
    autoscale_log: list[AutoscaleEvent] = field(default_factory=list)
    initial_slots: int = 0
    final_slots: int = 0

    @property
    def submitted(self) -> int:
        return len(self.records)

    @property
    def succeeded(self) -> int:
        return sum(1 for record in self.records
                   if self.ledger.state(record.job_id) == SUCCEEDED)

    @property
    def cancelled(self) -> int:
        return sum(1 for record in self.records
                   if self.ledger.state(record.job_id) == CANCELLED)

    @property
    def dead(self) -> int:
        return sum(1 for record in self.records
                   if self.ledger.state(record.job_id) == DEADLETTER)

    @property
    def total_retries(self) -> int:
        return sum(record.retries for record in self.records)

    @property
    def total_preemptions(self) -> int:
        return sum(record.preemptions for record in self.records)

    @property
    def total_shed(self) -> int:
        return sum(1 for record in self.records if record.shed)

    @property
    def total_lost_epochs(self) -> int:
        return sum(record.lost_epochs for record in self.records)

    @property
    def events_processed(self) -> int:
        """Kernel events of the run, as the service report counted."""
        return self.service.events_processed

    def record(self, job_id: str) -> JobRecord:
        for candidate in self.records:
            if candidate.job_id == job_id:
                return candidate
        from repro.errors import ControlError
        raise ControlError(f"no job {job_id!r} in this control report")


def control_table(report: ControlReport) -> Frame:
    """Per-job lifecycle outcomes, one row per submitted job."""
    return Frame.from_records(
        [record.to_record(report.ledger) for record in report.records])


def control_summary(report: ControlReport) -> str:
    """Operator summary of the control view: outcomes, DLQ, autoscale."""
    lines = [
        (f"control [{report.service.policy}]: {report.submitted} job(s): "
         f"{report.succeeded} succeeded, {report.cancelled} cancelled, "
         f"{report.dead} dead-lettered; {report.total_retries} retry(s), "
         f"{report.total_preemptions} preemption(s); "
         f"ledger {len(report.ledger)} entries"),
        f"retry policy: {report.retry.describe()}",
    ]
    # Chaos lines only when something fired -- fault-free summaries are
    # byte-identical to pre-faults builds.
    if report.service.fault_events:
        lines.append(
            f"faults: {len(report.service.fault_events)} window(s) "
            f"injected, {report.service.transfers_aborted} in-flight "
            f"transfer(s) aborted")
    if report.total_shed:
        lines.append(
            f"slo-shed: {report.total_shed} job(s) cancelled at "
            f"admission under degraded capacity")
    if report.total_lost_epochs:
        lines.append(
            f"checkpoint replay: {report.total_lost_epochs} epoch(s) "
            f"of lost work re-run")
    if report.dead_letters:
        lines.append("dead-letter queue:")
        for letter in report.dead_letters:
            lines.append(f"  {letter.describe()}")
    if report.autoscale_log:
        lines.append(
            f"autoscale: {report.initial_slots} -> {report.final_slots} "
            f"slot(s) over {len(report.autoscale_log)} adjustment(s), "
            f"makespan {fmt_duration(report.service.makespan)}")
        for event in report.autoscale_log:
            lines.append(f"  {event.describe()}")
    return "\n".join(lines)
