"""Unit tests for the ExperimentSpec tree (repro.api.spec)."""

import pytest

from repro.api import (DiagnoseSpec, EnvironmentSpec, ExecSpec,
                       ExperimentSpec, FanoutSpec, RunSpec, ServeSpec,
                       SpecError, TuneSpec)
from repro.api.spec import SINGLE_PIPELINE_KINDS, WORKLOAD_KINDS


def spec_for(kind: str) -> ExperimentSpec:
    pipelines = ("MP3",) if kind in SINGLE_PIPELINE_KINDS else ()
    return ExperimentSpec(kind=kind, pipelines=pipelines)


# -- round trips --------------------------------------------------------------

@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_default_spec_round_trips(kind):
    spec = spec_for(kind)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_fully_populated_spec_round_trips():
    spec = ExperimentSpec(
        kind="tune", pipelines=("CV",),
        run=RunSpec(threads=16, epochs=3, compression="GZIP",
                    cache_mode="system", shuffle_buffer=512),
        environment=EnvironmentSpec(storage="ceph-ssd",
                                    backend="simulated"),
        executor=ExecSpec(jobs=4, cache_dir="/tmp/cache", progress=True),
        tune=TuneSpec(preprocessing_weight=1.0, storage_weight=0.5,
                      threads=(4, 8), compressions=(None, "ZLIB"),
                      cache_modes=("none", "system"), screen_keep=0.8),
        seed=7, name="populated")
    rebuilt = ExperimentSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.tune.threads == (4, 8)  # lists coerced back to tuples


def test_to_dict_is_json_plain():
    import json
    payload = spec_for("serve").to_dict()
    assert json.loads(json.dumps(payload)) == payload


def test_lists_coerce_to_tuples_on_construction():
    spec = ExperimentSpec(kind="sweep", pipelines=["MP3", "FLAC"])
    assert spec.pipelines == ("MP3", "FLAC")
    fanout = FanoutSpec(trainers=[1, 2])
    assert fanout.trainers == (1, 2)


# -- validation ---------------------------------------------------------------

def test_unknown_workload_kind():
    with pytest.raises(SpecError, match="unknown workload kind 'train'"):
        ExperimentSpec(kind="train").validate()


def test_unknown_top_level_key_lists_valid_keys():
    with pytest.raises(SpecError, match="valid keys:.*pipelines"):
        ExperimentSpec.from_dict({"kind": "sweep", "pipeline": ["MP3"]})


def test_unknown_section_key_names_the_section():
    with pytest.raises(SpecError, match="section 'run'"):
        ExperimentSpec.from_dict({"kind": "sweep",
                                  "run": {"thread": 8}})


def test_missing_kind_is_actionable():
    with pytest.raises(SpecError, match="needs a 'kind'"):
        ExperimentSpec.from_dict({"pipelines": ["MP3"]})


def test_single_pipeline_kinds_enforce_arity():
    with pytest.raises(SpecError, match="exactly one pipeline"):
        ExperimentSpec(kind="profile").validate()
    with pytest.raises(SpecError, match="exactly one pipeline"):
        ExperimentSpec(kind="diagnose",
                       pipelines=("MP3", "FLAC")).validate()


def test_unknown_pipeline_suggests_close_match():
    with pytest.raises(SpecError, match="did you mean 'CV'"):
        ExperimentSpec(kind="profile", pipelines=("CV3",)).validate()


@pytest.mark.parametrize("section,payload,fragment", [
    ("run", RunSpec(threads=0), "run.threads"),
    ("run", RunSpec(compression="LZ4"), "run.compression"),
    ("serve", ServeSpec(tenants=0), "serve.tenants"),
    ("serve", ServeSpec(trace="spiky"), "unknown trace"),
    ("serve", ServeSpec(policy="lru"), "unknown policy"),
    ("serve", ServeSpec(tie_break="random"), "serve.tie_break"),
    ("diagnose", DiagnoseSpec(verify_top=-1), "diagnose.verify_top"),
    ("tune", TuneSpec(screen_keep=0.0), "tune.screen_keep"),
    ("tune", TuneSpec(compressions=()), "tune.compressions"),
    ("tune", TuneSpec(preprocessing_weight=0.0, storage_weight=0.0,
                      throughput_weight=0.0), "weight"),
    ("fanout", FanoutSpec(trainers=(0,)), "fanout.trainers"),
    ("environment", EnvironmentSpec(storage="floppy"),
     "unknown storage device"),
    ("environment", EnvironmentSpec(backend="cuda"), "unknown backend"),
    ("executor", ExecSpec(jobs=0), "executor.jobs"),
])
def test_section_validation_errors_are_actionable(section, payload,
                                                  fragment):
    kind = {"serve": "serve", "diagnose": "diagnose", "tune": "tune",
            "fanout": "fanout"}.get(section, "profile")
    pipelines = ("MP3",) if kind in SINGLE_PIPELINE_KINDS else ()
    spec = ExperimentSpec(kind=kind, pipelines=pipelines,
                          **{section: payload})
    with pytest.raises(SpecError, match=fragment):
        spec.validate()


#: Every numeric spec field, with the workload kind that validates it.
NUMERIC_FIELDS = [
    ("tune", "preprocessing_weight"), ("tune", "storage_weight"),
    ("tune", "throughput_weight"), ("tune", "screen_keep"),
    ("control", "backoff_base"), ("control", "backoff_factor"),
    ("control", "fault_rate"), ("control", "autoscale_interval"),
    ("stream", "rate"), ("stream", "slo_stretch"),
    ("faults", "severity"), ("faults", "horizon"),
]
#: Integer fields reached through a section, with their workload kind.
INTEGER_FIELDS = [
    ("run", "threads"), ("run", "epochs"), ("executor", "jobs"),
    ("serve", "tenants"), ("serve", "slots"), ("control", "max_attempts"),
    ("control", "max_slots"), ("stream", "requests"), ("stream", "batch"),
    ("stream", "queue_bound"), ("faults", "stragglers"),
    ("faults", "checkpoint_epochs"), ("diagnose", "verify_top"),
]


def _spec_with(section: str, key: str, value) -> dict:
    kind = {"run": "serve", "executor": "serve",
            "faults": "control"}.get(section, section)
    payload = {"kind": kind, section: {key: value}}
    if kind in SINGLE_PIPELINE_KINDS:
        payload["pipelines"] = ["MP3"]
    return payload


@pytest.mark.parametrize("section,key", NUMERIC_FIELDS + INTEGER_FIELDS)
@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan"), True])
def test_numbers_must_be_finite_and_not_booleans(section, key, value):
    with pytest.raises(SpecError, match=f"{section}.{key}|tune weights"):
        ExperimentSpec.from_dict(_spec_with(section, key, value))


def test_seed_must_not_be_a_boolean():
    with pytest.raises(SpecError, match="seed"):
        ExperimentSpec.from_dict({"kind": "serve", "seed": True})


def test_fanout_strategy_validated_against_pipeline():
    spec = ExperimentSpec(kind="fanout", pipelines=("CV",),
                          fanout=FanoutSpec(strategy="bogus"))
    with pytest.raises(SpecError, match="valid strategies"):
        spec.validate()


# -- pipeline selection -------------------------------------------------------

def test_sweep_defaults_to_the_paper_seven():
    from repro.pipelines.registry import PAPER_PIPELINES
    assert spec_for("sweep").pipeline_names() == tuple(PAPER_PIPELINES)


def test_serve_reports_the_trace_mix():
    from repro.serve.jobs import DEFAULT_PIPELINE_MIX
    assert spec_for("serve").pipeline_names() \
        == tuple(DEFAULT_PIPELINE_MIX)


# -- fingerprinting -----------------------------------------------------------

def test_fingerprint_is_stable_across_rebuilds():
    first = spec_for("sweep").fingerprint()
    again = ExperimentSpec.from_dict(spec_for("sweep").to_dict()
                                     ).fingerprint()
    assert first == again
    assert len(first) == 64 and set(first) <= set("0123456789abcdef")


def test_fingerprint_tracks_resolved_work():
    base = spec_for("profile")
    assert base.fingerprint() \
        != base.with_overrides(run=RunSpec(threads=16)).fingerprint()
    assert base.fingerprint() \
        != base.with_overrides(pipelines=("FLAC",)).fingerprint()
    assert base.fingerprint() \
        != base.with_overrides(kind="diagnose").fingerprint()
    assert base.fingerprint() != base.with_overrides(
        environment=EnvironmentSpec(storage="ceph-ssd")).fingerprint()


def test_fingerprint_ignores_executor_settings():
    """jobs/cache/progress change *how* work runs, never its result."""
    base = spec_for("sweep")
    parallel = base.with_overrides(
        executor=ExecSpec(jobs=8, cache_dir="/tmp/x", progress=True))
    assert base.fingerprint() == parallel.fingerprint()


def test_serve_seed_is_part_of_the_fingerprint():
    base = spec_for("serve")
    assert base.fingerprint() \
        != base.with_overrides(seed=1).fingerprint()
