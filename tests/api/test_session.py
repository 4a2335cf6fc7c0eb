"""Tests for the Session facade: plan -> run -> artifact."""

from dataclasses import replace

import pytest

from repro.api import (ExecSpec, ExperimentSpec, RunSpec, ServeSpec,
                       Session, comparison_frame)


def test_profile_artifact_matches_cli_output(capsys):
    from repro.cli import main
    assert main(["profile", "MP3"]) == 0
    cli_stdout = capsys.readouterr().out
    artifact = Session(stderr=None).run(
        ExperimentSpec(kind="profile", pipelines=("MP3",)))
    assert artifact.report + "\n" == cli_stdout
    assert len(artifact.frame) == 3
    assert artifact.events_processed > 0
    assert artifact.provenance.kind == "profile"
    assert artifact.provenance.version
    assert artifact.provenance.spec["pipelines"] == ["MP3"]


def test_plan_counts_match_execution():
    spec = ExperimentSpec(kind="sweep", pipelines=("MP3", "FLAC"))
    session = Session(stderr=None)
    plan = session.plan(spec)
    assert [p.name for p in plan.pipelines] == ["MP3", "FLAC"]
    assert plan.job_count == 6
    assert plan.fingerprint == spec.fingerprint()
    artifact = plan.run(session)
    assert len(artifact.frame) == plan.job_count
    assert artifact.fingerprint == plan.fingerprint
    # The event estimate is order-of-magnitude, not exact.
    assert 0.1 < artifact.events_processed / plan.estimated_events < 10


def test_tune_plan_job_count_matches_execution_exactly():
    """The plan runs the real analytic screen (split-point coverage
    included), so planned and profiled strategy counts are identical."""
    spec = ExperimentSpec(kind="tune", pipelines=("CV",))
    session = Session(stderr=None)
    plan = session.plan(spec)
    artifact = session.run(spec)
    assert plan.job_count == len(artifact.frame)


def test_diagnose_plan_reports_verification_as_upper_bound():
    from repro.api import DiagnoseSpec
    spec = ExperimentSpec(kind="diagnose", pipelines=("MP3",),
                          diagnose=DiagnoseSpec(verify_top=10))
    plan = Session(stderr=None).plan(spec)
    assert plan.job_count == 3  # exactly the profiling jobs
    assert plan.verify_jobs == 10
    assert "up to 10" in plan.describe()


def test_plan_describe_is_inspectable():
    plan = Session().plan(ExperimentSpec(kind="serve", seed=4,
                                         serve=ServeSpec(tenants=12)))
    text = plan.describe()
    assert "experiment: serve" in text
    assert "12 tenants" in text
    assert "bursty" not in text  # default trace is steady
    assert f"fingerprint: {plan.fingerprint}" in text
    assert "estimated kernel events" in text


def test_serve_artifact_counts_kernel_events():
    artifact = Session(stderr=None).run(ExperimentSpec(
        kind="serve", serve=ServeSpec(tenants=2, slots=2),
        run=RunSpec(epochs=1)))
    assert artifact.events_processed > 0
    assert "## serve: 2 tenants" in artifact.report
    assert "tenant" in artifact.frame.columns


def test_tune_artifact():
    artifact = Session(stderr=None).run(ExperimentSpec(
        kind="tune", pipelines=("NILM",)))
    assert "best =" in artifact.report
    assert "throughput_sps" in artifact.frame.columns
    assert artifact.events_processed > 0


def test_fanout_artifact():
    artifact = Session(stderr=None).run(ExperimentSpec(
        kind="fanout", pipelines=("NILM",)))
    assert "fanning out NILM/" in artifact.report
    assert "delivered_sps" in artifact.frame.columns


def test_fanout_simulate_counts_events_and_respects_environment():
    from repro.api import EnvironmentSpec, FanoutSpec
    spec = ExperimentSpec(kind="fanout", pipelines=("MP3",),
                          fanout=FanoutSpec(strategy="unprocessed",
                                            trainers=(1, 2),
                                            simulate=True))
    session = Session(stderr=None)
    hdd = session.run(spec)
    assert hdd.events_processed > 0
    ssd = session.run(replace(
        spec, environment=EnvironmentSpec(storage="ceph-ssd")))
    assert ssd.report != hdd.report  # the storage device matters


def test_diagnose_verify_events_are_counted():
    from repro.api import DiagnoseSpec
    session = Session(stderr=None)
    base = session.run(ExperimentSpec(kind="diagnose",
                                      pipelines=("MP3",)))
    verified = session.run(ExperimentSpec(
        kind="diagnose", pipelines=("MP3",),
        diagnose=DiagnoseSpec(verify_top=2)))
    assert verified.events_processed > base.events_processed


def test_session_cache_note_and_reuse(tmp_path, capsys):
    spec = ExperimentSpec(
        kind="profile", pipelines=("MP3",),
        executor=ExecSpec(jobs=2, cache_dir=str(tmp_path / "c")))
    first = Session().run(spec)
    assert "0 hits / 3 lookups" in capsys.readouterr().err
    second = Session().run(spec)
    assert "3 hits / 3 lookups (100%)" in capsys.readouterr().err
    assert second.report == first.report
    # Cached profiles restore the deterministic event counts too.
    assert second.events_processed == first.events_processed > 0


def test_last_artifact_is_retained():
    session = Session(stderr=None)
    assert session.last_artifact is None
    artifact = session.run(ExperimentSpec(kind="profile",
                                          pipelines=("MP3",)))
    assert session.last_artifact is artifact


def test_invalid_spec_is_rejected_before_running():
    from repro.errors import SpecError
    with pytest.raises(SpecError):
        Session(stderr=None).run(ExperimentSpec(kind="profile"))


def test_comparison_frame_composes_workloads():
    session = Session(stderr=None)
    profile = session.run(ExperimentSpec(kind="profile",
                                         pipelines=("MP3",),
                                         name="mp3-profile"))
    serve = session.run(ExperimentSpec(
        kind="serve", serve=ServeSpec(tenants=2), run=RunSpec(epochs=1)))
    combined = comparison_frame([profile, serve])
    assert len(combined) == len(profile.frame) + len(serve.frame)
    assert set(combined["workload"]) == {"profile", "serve"}
    assert "mp3-profile" in combined["experiment"]
    # Columns union: profile rows have no 'tenant', serve rows do.
    assert "tenant" in combined.columns
    assert "throughput_sps" in combined.columns
