"""Unit tests for the ExperimentSpec tree (repro.api.spec)."""

import json
import re
from dataclasses import fields, replace

import pytest

from repro.api import (DiagnoseSpec, EnvironmentSpec, ExecSpec,
                       ExperimentSpec, FanoutSpec, RunSpec, ServeSpec,
                       SpecError, TuneSpec)
from repro.api.spec import SECTIONS, SINGLE_PIPELINE_KINDS, WORKLOAD_KINDS
from repro.cli import main


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


def schema_fields(*kinds) -> list:
    """``(section, field, schema)`` of every schema-declared field ("" is
    the top level), optionally only those of the given schema kinds."""
    owners = [("", ExperimentSpec), *SECTIONS.items()]
    return [(section, spec_field.name, spec_field.metadata)
            for section, owner in owners for spec_field in fields(owner)
            if spec_field.metadata
            and (not kinds or spec_field.metadata["kind"] in kinds)]


def _spec_with(section: str, key: str, value) -> dict:
    """A spec payload whose workload kind validates ``section.key``."""
    kind = section if section in WORKLOAD_KINDS else \
        {"faults": "control"}.get(section, "serve")
    payload = {"kind": kind}
    payload.update({section: {key: value}} if section else {key: value})
    if kind in SINGLE_PIPELINE_KINDS:
        payload["pipelines"] = ["MP3"]
    return payload


@pytest.mark.parametrize("kind,section,key", [
    (_spec_with(section, key, None)["kind"], section, key)
    for section, key, _ in schema_fields("name")])
@pytest.mark.parametrize("value", [{}, ["hdd"]])
def test_non_string_names_are_spec_errors(kind, section, key, value,
                                          tmp_path, capsys):
    payload = {"kind": kind, section: {key: value}}
    with pytest.raises(SpecError, match="expected a string"):
        ExperimentSpec.from_dict(payload).validate()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    assert main(["plan", str(path)]) == 2
    assert "expected a string" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    (section, key) for section, key, _ in schema_fields("int", "float")
    if section])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan"), True])
def test_numbers_must_be_finite_and_not_booleans(section, key, value):
    with pytest.raises(SpecError, match=f"{section}.{key}"):
        ExperimentSpec.from_dict(_spec_with(section, key, value))


#: Wrong-typed values per schema kind: a bool or non-finite value for a
#: number, a non-bool for a bool, a container for a name or string.
WRONG_VALUES = {
    "int": [True, 1.5, "3"],
    "float": [True, float("nan"), float("inf"), "1.0"],
    "bool": ["no", "false", 1],
    "choice": [[], "bogus"],
    "name": [[], 7],
    "str": [[], 7],
}


@pytest.mark.parametrize("section,key,value", [
    pytest.param(section, key, value,
                 id=f"{section or 'spec'}.{key}={value!r}")
    for section, key, schema in schema_fields()
    for value in WRONG_VALUES[schema["kind"]]])
def test_wrong_typed_values_name_the_field(section, key, value, tmp_path,
                                           capsys):
    """Every schema field rejects a wrong-typed value with a SpecError
    naming the field, and ``presto plan`` exits 2 on such a file."""
    field_path = f"{section}.{key}" if section else key
    payload = _spec_with(section, key, value)
    with pytest.raises(SpecError, match=re.escape(field_path)):
        ExperimentSpec.from_dict(payload)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    assert main(["plan", str(path)]) == 2
    assert field_path in capsys.readouterr().err


# -- wrong-typed containers ----------------------------------------------------

@pytest.mark.parametrize("section", sorted(SECTIONS))
@pytest.mark.parametrize("value", [[], [{}], 3, "serve", None, True],
                         ids=repr)
def test_sections_must_be_mappings(section, value):
    with pytest.raises(SpecError,
                       match=f"spec section '{section}' must be a mapping"):
        ExperimentSpec.from_dict({"kind": "serve", section: value})


#: A container where the schema expects one scalar; an ``each`` field
#: takes a list, so only the mapping is wrong for it.
SCALAR_CONTAINERS = [{}, {"value": 1}, [], [1]]


@pytest.mark.parametrize("section,key,value", [
    pytest.param(section, key, value,
                 id=f"{section or 'spec'}.{key}={value!r}")
    for section, key, schema in schema_fields()
    for value in SCALAR_CONTAINERS
    if not (schema.get("each") and isinstance(value, list))])
def test_containers_for_scalars_name_the_field(section, key, value):
    field_path = f"{section}.{key}" if section else key
    with pytest.raises(SpecError, match=re.escape(field_path)):
        ExperimentSpec.from_dict(_spec_with(section, key, value))


@pytest.mark.parametrize("section,key,value", [
    pytest.param(section, key, value,
                 id=f"{section}.{key}={value!r}")
    for section, key, schema in schema_fields()
    if schema.get("each")
    for value in ([[]], [[1]], [["GZIP"]], [1, [2]])])
def test_nested_lists_in_each_fields_name_the_field(section, key, value):
    with pytest.raises(SpecError, match=re.escape(f"{section}.{key}")):
        ExperimentSpec.from_dict(_spec_with(section, key, value))


@pytest.mark.parametrize("value", [[["MP3"]], {"MP3": 1}, 7], ids=repr)
def test_pipelines_must_be_a_flat_list_of_names(value):
    with pytest.raises(SpecError, match="'pipelines' must be a list"):
        ExperimentSpec.from_dict({"kind": "sweep", "pipelines": value})


def test_plan_exits_2_on_a_section_given_as_a_list(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "serve", "serve": [{"tenants": 4}]}))
    assert main(["plan", str(path)]) == 2
    assert "spec section 'serve' must be a mapping, got list" \
        in capsys.readouterr().err


def test_yaml_no_is_not_a_boolean(tmp_path, capsys):
    """The YAML subset reads ``no`` as a string: it must not switch
    preemption on."""
    path = tmp_path / "spec.yaml"
    path.write_text("kind: control\ncontrol:\n  preempt: no\n")
    assert main(["plan", str(path)]) == 2
    assert "control.preempt must be a boolean, got 'no'" \
        in capsys.readouterr().err


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
        != replace(base, run=RunSpec(threads=16)).fingerprint()
    assert base.fingerprint() \
        != replace(base, pipelines=("FLAC",)).fingerprint()
    assert base.fingerprint() \
        != replace(base, kind="diagnose").fingerprint()
    assert base.fingerprint() != replace(
        base, environment=EnvironmentSpec(storage="ceph-ssd")).fingerprint()


def test_fingerprint_ignores_executor_settings():
    """jobs/cache/progress change *how* work runs, never its result."""
    base = spec_for("sweep")
    parallel = replace(
        base, executor=ExecSpec(jobs=8, cache_dir="/tmp/x", progress=True))
    assert base.fingerprint() == parallel.fingerprint()


def test_serve_seed_is_part_of_the_fingerprint():
    base = spec_for("serve")
    assert base.fingerprint() \
        != replace(base, seed=1).fingerprint()
