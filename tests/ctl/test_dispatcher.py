"""Dispatcher behaviour tests: retry, DLQ, cancel, admission, preempt,
autoscale -- each feature pinned through the execution ledger."""

import pytest

from repro.ctl import (CANCELLED, DEADLETTER, SUCCEEDED, AutoscaleConfig,
                       Dispatcher, RetryPolicy, control_summary,
                       control_table)
from repro.ctl import ledger as lc
from repro.errors import ControlError, ProfilingError
from repro.serve import JobSpec


def _spec(tenant="t0", pipeline="MP3", split="spectrogram-encoded",
          **kwargs):
    return JobSpec(tenant=tenant, pipeline=pipeline, split=split, **kwargs)


def _events(report, job_id):
    return [entry.event for entry in report.ledger.entries_for(job_id)]


class TestConstruction:
    def test_empty_trace_raises(self):
        with pytest.raises(ControlError, match="empty control trace"):
            Dispatcher().run([])

    def test_bad_admission_limit(self):
        with pytest.raises(ControlError, match="admission_limit"):
            Dispatcher(admission_limit=0)

    def test_slots_outside_autoscale_bounds(self):
        with pytest.raises(ControlError, match="outside autoscale bounds"):
            Dispatcher(slots=8,
                       autoscale=AutoscaleConfig(min_slots=1, max_slots=4))
        with pytest.raises(ControlError, match="min_slots"):
            AutoscaleConfig(min_slots=0)
        with pytest.raises(ControlError, match="max_slots"):
            AutoscaleConfig(min_slots=4, max_slots=2)

    def test_retry_policy_validation(self):
        with pytest.raises(ControlError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ControlError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ControlError):
            RetryPolicy().backoff(0)
        with pytest.raises(ControlError, match="max_attempts"):
            RetryPolicy(max_attempts=True)

    def test_nan_slots_rejected(self):
        with pytest.raises(ProfilingError, match="execution slot"):
            Dispatcher(slots=float("nan"))

    @pytest.mark.parametrize("value", [float("nan"), -1.0],
                             ids=["nan", "neg"])
    @pytest.mark.parametrize("build", [
        lambda value: Dispatcher().cancel("job-000", at=value),
        lambda value: Dispatcher(admission_limit=value),
        lambda value: AutoscaleConfig(min_slots=value),
        lambda value: AutoscaleConfig(max_slots=value),
        lambda value: AutoscaleConfig(interval=value),
        lambda value: RetryPolicy(backoff_base=value),
        lambda value: RetryPolicy(backoff_factor=value),
        lambda value: RetryPolicy(backoff_cap=value),
    ], ids=["cancel.at", "admission_limit", "autoscale.min_slots",
            "autoscale.max_slots", "autoscale.interval", "retry.backoff_base",
            "retry.backoff_factor", "retry.backoff_cap"])
    def test_nan_and_negative_inputs_rejected(self, build, value):
        """NaN fails every ``x < 0`` test, so each guard is written
        ``not x >= ...`` and rejects NaN like a negative."""
        with pytest.raises(ControlError):
            build(value)

    def test_backoff_grows_geometrically_to_the_cap(self):
        policy = RetryPolicy(max_attempts=9, backoff_base=10.0,
                             backoff_factor=2.0, backoff_cap=50.0)
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == \
            [10.0, 20.0, 40.0, 50.0]
        assert policy.should_retry(8) and not policy.should_retry(9)


class TestLifecycle:
    def test_clean_run_lifecycle(self):
        report = Dispatcher(slots=1).run([_spec()])
        assert _events(report, "job-000") == \
            [lc.SUBMIT, lc.ADMIT, lc.START, lc.SUCCEED]
        assert report.submitted == 1 and report.succeeded == 1
        assert report.ledger.state("job-000") == SUCCEEDED
        record = report.record("job-000")
        assert record.attempt == 1 and record.failures == 0
        with pytest.raises(ControlError, match="no job"):
            report.record("job-999")

    def test_submit_api_ids_are_stable(self):
        dispatcher = Dispatcher(slots=2)
        first = dispatcher.submit(_spec("a"))
        second = dispatcher.submit(_spec("b"))
        assert (first, second) == ("job-000", "job-001")
        report = dispatcher.run()
        assert {record.job_id for record in report.records} == \
            {"job-000", "job-001"}

    def test_report_rendering(self):
        report = Dispatcher(slots=1).run([_spec("a"), _spec("b")])
        summary = control_summary(report)
        assert "control [fifo]: 2 job(s)" in summary
        assert "2 succeeded" in summary
        assert "retry policy:" in summary
        table = control_table(report)
        assert table["state"] == [SUCCEEDED, SUCCEEDED]
        assert table["attempts"] == [1, 1]


class TestRetryAndDeadLetter:
    def test_transient_crash_is_retried_to_success(self):
        spec = _spec(epochs=2, crash_epoch=1, crash_attempts=1)
        report = Dispatcher(
            slots=1, retry=RetryPolicy(max_attempts=3, backoff_base=50.0,
                                       backoff_factor=3.0)).run([spec])
        assert _events(report, "job-000") == [
            lc.SUBMIT, lc.ADMIT, lc.START, lc.FAIL, lc.RETRY,
            lc.ADMIT, lc.START, lc.SUCCEED]
        record = report.record("job-000")
        assert record.failures == 1 and record.retries == 1
        assert report.ledger.attempts("job-000") == 2
        assert "injected crash at epoch 1" in report.ledger.describe()

    def test_retry_waits_the_exponential_backoff(self):
        spec = _spec(epochs=2, crash_epoch=1, crash_attempts=2)
        report = Dispatcher(
            slots=1, retry=RetryPolicy(max_attempts=3, backoff_base=50.0,
                                       backoff_factor=3.0)).run([spec])
        entries = report.ledger.entries_for("job-000")
        fails = [entry for entry in entries if entry.event == lc.FAIL]
        retries = [entry for entry in entries if entry.event == lc.RETRY]
        assert len(fails) == 2 and len(retries) == 2
        assert retries[0].time - fails[0].time == pytest.approx(50.0)
        assert retries[1].time - fails[1].time == pytest.approx(150.0)

    def test_exhausted_job_dead_letters(self):
        spec = _spec(epochs=2, crash_epoch=0, crash_attempts=99)
        report = Dispatcher(
            slots=1, retry=RetryPolicy(max_attempts=2,
                                       backoff_base=10.0)).run([spec])
        assert _events(report, "job-000")[-2:] == [lc.FAIL, lc.EXHAUST]
        assert report.ledger.state("job-000") == DEADLETTER
        assert report.ledger.dead_letters() == ("job-000",)
        assert report.dead == 1
        letter = report.dead_letters[0]
        assert letter.attempts == 2 and letter.tenant == "t0"
        assert "dead-letter queue" in control_summary(report)

    def test_retry_api_resubmits_only_dead_letters(self):
        spec = _spec(epochs=1, crash_epoch=0, crash_attempts=99)
        dispatcher = Dispatcher(slots=1,
                                retry=RetryPolicy(max_attempts=1))
        first = dispatcher.run([spec])
        assert first.ledger.state("job-000") == DEADLETTER
        new_id = dispatcher.retry("job-000")
        assert new_id == "job-001"
        second = dispatcher.run()
        record = second.record("job-001")
        assert record.parent == "job-000"
        # The crash is still in the spec, so it dead-letters again.
        assert second.ledger.state("job-001") == DEADLETTER
        with pytest.raises(ControlError, match="dead-lettered"):
            dispatcher.retry("job-001-nope")


class TestCancellation:
    def test_cancel_before_arrival(self):
        dispatcher = Dispatcher(slots=1)
        dispatcher.submit(_spec(arrival=100.0))
        dispatcher.cancel("job-000", at=10.0)
        report = dispatcher.run()
        assert _events(report, "job-000") == [lc.SUBMIT, lc.CANCEL]
        assert report.ledger.state("job-000") == CANCELLED
        assert report.cancelled == 1

    def test_cancel_while_queued(self):
        dispatcher = Dispatcher(slots=1)
        dispatcher.submit(_spec("a"))
        dispatcher.submit(_spec("b"))
        dispatcher.cancel("job-001", at=1.0)
        report = dispatcher.run()
        assert _events(report, "job-001") == \
            [lc.SUBMIT, lc.ADMIT, lc.CANCEL]
        assert report.ledger.state("job-000") == SUCCEEDED
        # The cancelled job never held a slot, so 'a' ran uncontended.
        assert report.record("job-001").job.granted is None

    def test_cancel_while_running_stops_at_epoch_boundary(self):
        # Probe the clean timeline, then cancel just after epoch 0 ends.
        clean = Dispatcher(slots=1).run([_spec(epochs=4)])
        probe = clean.record("job-000").job
        cut = (probe.granted + probe.offline.duration
               + probe.epochs[0].duration
               + 0.5 * probe.epochs[1].duration)
        dispatcher = Dispatcher(slots=1)
        dispatcher.submit(_spec(epochs=4))
        dispatcher.cancel("job-000", at=cut)
        report = dispatcher.run()
        events = _events(report, "job-000")
        assert events == [lc.SUBMIT, lc.ADMIT, lc.START, lc.CANCEL]
        job = report.record("job-000").job
        assert 0 < len(job.epochs) < 4

    def test_cancel_after_terminal_is_a_noop(self):
        dispatcher = Dispatcher(slots=1)
        dispatcher.submit(_spec(epochs=1))
        dispatcher.cancel("job-000", at=1e9)
        report = dispatcher.run()
        assert report.ledger.state("job-000") == SUCCEEDED

    def test_cancel_unknown_job_raises(self):
        dispatcher = Dispatcher(slots=1)
        dispatcher.submit(_spec())
        dispatcher.cancel("job-777")
        with pytest.raises(ControlError, match="unknown job"):
            dispatcher.run()
        with pytest.raises(ControlError, match="cancel time"):
            Dispatcher().cancel("job-000", at=-1.0)


class TestAdmissionControl:
    def test_per_tenant_inflight_never_exceeds_the_limit(self):
        trace = [_spec("hog") for _ in range(3)] + [_spec("other")]
        report = Dispatcher(slots=4, admission_limit=1).run(trace)
        inflight = {}
        for entry in report.ledger.entries:
            tenant = report.record(entry.job_id).job.spec.tenant
            if entry.event == lc.ADMIT:
                inflight[tenant] = inflight.get(tenant, 0) + 1
                assert inflight[tenant] <= 1
            elif entry.event in (lc.SUCCEED, lc.FAIL, lc.CANCEL,
                                 lc.PREEMPT):
                inflight[tenant] -= 1
        assert report.succeeded == 4
        # The hog's jobs were serialized even with slots to spare.
        hog = sorted(record.job.granted for record in report.records
                     if record.job.spec.tenant == "hog")
        finished = sorted(record.job.finished
                          for record in report.records
                          if record.job.spec.tenant == "hog")
        assert hog[1] >= finished[0] and hog[2] >= finished[1]

    def test_cancel_while_waiting_for_admission(self):
        dispatcher = Dispatcher(slots=4, admission_limit=1)
        dispatcher.submit(_spec("hog", epochs=4))
        dispatcher.submit(_spec("hog"))
        dispatcher.cancel("job-001", at=1.0)
        report = dispatcher.run()
        assert _events(report, "job-001") == [lc.SUBMIT, lc.CANCEL]
        assert report.ledger.state("job-000") == SUCCEEDED


class TestPreemption:
    def _contended_trace(self, newcomer_arrival):
        # 'hog' accumulates weighted busy-time with a short job, then
        # holds the only slot with a long one; the newcomer's weighted
        # share is zero, so fair-share preempts the hog's second job.
        return [_spec("hog", epochs=1),
                _spec("hog", epochs=6, arrival=1.0),
                _spec("new", epochs=1,
                      arrival=newcomer_arrival, priority=4.0)]

    def _mid_second_job(self):
        """An arrival instant inside epoch 1 of the hog's long job."""
        probe = Dispatcher(policy="fair-share", slots=1).run(
            self._contended_trace(1e6))
        job = probe.record("job-001").job
        offline = job.offline.duration if job.offline else 0.0
        return (job.granted + offline + job.epochs[0].duration
                + 0.5 * job.epochs[1].duration)

    def test_fair_share_preempts_the_heavy_tenant(self):
        report = Dispatcher(policy="fair-share", slots=1, preempt=True).run(
            self._contended_trace(self._mid_second_job()))
        assert report.total_preemptions >= 1
        events = _events(report, "job-001")
        assert lc.PREEMPT in events and lc.REQUEUE in events
        preempt_at = events.index(lc.PREEMPT)
        assert events[preempt_at:preempt_at + 3] == \
            [lc.PREEMPT, lc.REQUEUE, lc.ADMIT]
        # Everyone still finishes; the preempted job resumes where it
        # stopped instead of redoing epochs.
        assert report.succeeded == 3
        assert len(report.record("job-001").job.epochs) == 6

    def test_preemption_requires_the_flag(self):
        report = Dispatcher(policy="fair-share", slots=1, preempt=False).run(
            self._contended_trace(self._mid_second_job()))
        assert report.total_preemptions == 0
        assert report.succeeded == 3


class TestAutoscaling:
    def _pressure_trace(self):
        return [_spec(f"t{i}", arrival=float(i)) for i in range(6)]

    def test_grows_under_queue_pressure(self):
        dispatcher = Dispatcher(
            slots=1, autoscale=AutoscaleConfig(min_slots=1, max_slots=4,
                                               interval=200.0))
        report = dispatcher.run(self._pressure_trace())
        assert report.final_slots > report.initial_slots
        assert any(event.new_slots > event.old_slots
                   for event in report.autoscale_log)
        assert all(1 <= event.new_slots <= 4
                   for event in report.autoscale_log)
        assert report.succeeded == 6
        # The dispatcher is reusable: slot count restored after the run.
        assert dispatcher.slots == report.initial_slots == 1
        assert "autoscale:" in control_summary(report)

    def test_autoscale_log_is_deterministic(self):
        config = AutoscaleConfig(min_slots=1, max_slots=4, interval=200.0)
        first = Dispatcher(slots=1, autoscale=config).run(
            self._pressure_trace())
        second = Dispatcher(slots=1, autoscale=config).run(
            self._pressure_trace())
        assert [event.describe() for event in first.autoscale_log] == \
            [event.describe() for event in second.autoscale_log]
        assert first.events_processed == second.events_processed


class TestDeterminismAndEvents:
    def _faulty_trace(self):
        return [_spec("a", epochs=2, crash_epoch=1, crash_attempts=1),
                _spec("b", arrival=5.0),
                _spec("c", arrival=10.0, crash_epoch=0, crash_attempts=99)]

    def _run(self):
        return Dispatcher(
            policy="fair-share", slots=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=30.0)).run(
                self._faulty_trace())

    def test_seeded_crash_runs_are_bit_identical(self):
        first, second = self._run(), self._run()
        assert first.ledger.describe() == second.ledger.describe()
        assert first.events_processed == second.events_processed
        assert control_summary(first) == control_summary(second)
        assert control_table(first).to_markdown() == \
            control_table(second).to_markdown()

    def test_subscribers_see_the_whole_run_in_ledger_order(self):
        dispatcher = Dispatcher(slots=1)
        seen = []
        dispatcher.subscribe(seen.append)
        report = dispatcher.run([_spec("a"), _spec("b", arrival=2.0)])
        assert seen == list(report.ledger.entries)
        times = [entry.time for entry in seen]
        assert times == sorted(times)
