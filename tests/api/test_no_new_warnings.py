"""Deprecation hygiene: the classic entry points stay first-class.

The Session facade fronts SweepEngine / AutoTuner /
BottleneckDoctor / PreprocessingService, but direct construction of any
of them remains supported and silent -- no DeprecationWarning,
FutureWarning or any other warning is emitted by either the classic
paths or the new declarative path (warnings are escalated to errors
here, so a regression fails loudly).
"""

import warnings

import pytest


@pytest.fixture(autouse=True)
def escalate_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_classic_profiler_and_engine_paths_emit_no_warnings():
    from repro import (ProfileCache, SimulatedBackend, SweepEngine,
                       get_pipeline)
    profiles = SweepEngine(SimulatedBackend()).profile_pipeline(
        get_pipeline("MP3"))
    assert len(profiles) == 3
    engine = SweepEngine(SimulatedBackend(), cache=ProfileCache())
    result = engine.sweep([get_pipeline("MP3")])
    assert result.job_count == 3


def test_classic_tuner_doctor_and_service_emit_no_warnings():
    from repro import (AutoTuner, BottleneckDoctor, PreprocessingService,
                       SimulatedBackend, get_pipeline)
    from repro.serve import steady_trace
    report = AutoTuner(SimulatedBackend()).tune(get_pipeline("NILM"))
    assert report.best is not None
    diagnosis = BottleneckDoctor().diagnose(get_pipeline("MP3"))
    assert diagnosis.strategies
    service_report = PreprocessingService(slots=2).run(
        steady_trace(tenants=2, seed=0, epochs=1))
    assert service_report.makespan > 0


def test_declarative_path_emits_no_warnings():
    from repro.api import ExperimentSpec, Session
    artifact = Session(stderr=None).run(
        ExperimentSpec(kind="profile", pipelines=("MP3",)))
    assert artifact.report
