"""Differential tests: the control plane with every feature off IS the
plain service.

The dispatcher's zero-overhead claim -- no retry, no admission limit,
no preemption, no autoscaler means not one extra simulation event --
pinned at the library level (identical event counts and reports) and at
the CLI level (the ``presto serve`` output is a byte-for-byte prefix of
the ``presto ctl`` output for the same arguments).
"""

from repro.cli import main
from repro.core.report import service_summary, tenant_table
from repro.ctl import Dispatcher
from repro.serve import PreprocessingService, generate_trace


def _run_pair(policy="fair-share", slots=2, tenants=5, seed=7,
              trace_kind="steady", tie_break="arrival"):
    trace = generate_trace(trace_kind, tenants=tenants, seed=seed)
    plain = PreprocessingService(policy=policy, slots=slots,
                                 tie_break=tie_break).run(trace)
    control = Dispatcher(policy=policy, slots=slots,
                         tie_break=tie_break).run(trace)
    return plain, control


class TestLibraryDifferential:
    def test_feature_free_control_run_is_the_serve_run(self):
        plain, control = _run_pair()
        assert control.events_processed == plain.events_processed
        assert control.service.makespan == plain.makespan
        assert (tenant_table(control.service).to_markdown()
                == tenant_table(plain).to_markdown())
        assert (service_summary(control.service)
                == service_summary(plain))

    def test_differential_holds_across_policies_and_traces(self):
        for policy, trace_kind, tie_break in (
                ("fifo", "bursty", "arrival"),
                ("cache-aware", "steady", "tenant")):
            plain, control = _run_pair(policy=policy,
                                       trace_kind=trace_kind,
                                       tie_break=tie_break, tenants=4)
            assert control.events_processed == plain.events_processed
            assert (service_summary(control.service)
                    == service_summary(plain))

    def test_every_job_simply_succeeds(self):
        _, control = _run_pair(tenants=4)
        assert control.succeeded == control.submitted
        assert control.total_retries == 0
        assert control.total_preemptions == 0
        assert control.dead == 0
        # Exactly four ledger entries per job: the straight-line path.
        assert len(control.ledger) == 4 * control.submitted


class TestCliDifferential:
    def test_serve_stdout_is_a_byte_prefix_of_ctl_stdout(self, capsys):
        argv = ["--tenants", "3", "--policy", "fair-share",
                "--trace", "steady", "--seed", "11", "--slots", "2"]
        assert main(["serve"] + argv) == 0
        serve_out = capsys.readouterr().out
        assert main(["ctl"] + argv) == 0
        ctl_out = capsys.readouterr().out
        assert ctl_out.startswith(serve_out.rstrip("\n"))
        assert "## control plane" in ctl_out
        assert "## control plane" not in serve_out
