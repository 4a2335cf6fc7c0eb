"""Property test: spec round-trips are identity for every workload kind.

``ExperimentSpec.from_dict(spec.to_dict()) == spec`` over random spec
trees -- the lossless-serialization contract of the declarative API.
Every field is drawn from its schema (:func:`repro.api.spec.spec_field`),
so a new field is covered as soon as it is declared; only the
hand-written cross-field rules are restated here.  Derandomized, like
the fingerprint property suite.
"""

from dataclasses import fields, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (ExperimentSpec, resolve_arrival, resolve_backend_name,
                       resolve_pipeline, resolve_policy, resolve_storage,
                       resolve_trace)
from repro.api.resolve import BACKEND_NAMES
from repro.api.spec import SECTIONS, SINGLE_PIPELINE_KINDS, WORKLOAD_KINDS
from repro.serve.jobs import TRACE_KINDS
from repro.serve.policies import POLICY_NAMES
from repro.sim.storage import DEVICE_PROFILES
from repro.stream.requests import ARRIVAL_KINDS

N_EXAMPLES = 60

PIPELINES = ("CV", "CV2-JPG", "NLP", "NILM", "MP3", "FLAC")

#: The names each registry resolver accepts.
REGISTRIES = {
    resolve_storage: tuple(DEVICE_PROFILES),
    resolve_backend_name: BACKEND_NAMES,
    resolve_trace: tuple(TRACE_KINDS),
    resolve_policy: (*POLICY_NAMES, "all"),
    resolve_arrival: tuple(ARRIVAL_KINDS),
}

#: The hand-written cross-field rules of each section.
SECTION_RULES = {
    "tune": lambda tune: any((tune.preprocessing_weight,
                              tune.storage_weight,
                              tune.throughput_weight)),
    "control": lambda control: control.policy != "all" and (
        control.max_slots == 0 or control.max_slots >= control.slots),
}


def value_strategy(schema) -> st.SearchStrategy:
    """Valid values of one field, read from its schema."""
    kind = schema["kind"]
    if kind == "int":
        low = schema.get("min", 0)
        values = st.integers(low, low + 64)
    elif kind == "float":
        values = st.floats(schema.get("min", schema.get("gt", 0.0)),
                           schema.get("max", 1e6),
                           exclude_min="gt" in schema,
                           allow_nan=False, allow_infinity=False)
    elif kind == "bool":
        values = st.booleans()
    elif kind == "choice":
        values = st.sampled_from(schema["choices"])
    elif kind == "name":
        values = st.sampled_from(REGISTRIES[schema["resolve"]])
    else:
        values = st.text(alphabet="abc-", max_size=8)
    if schema.get("each"):
        values = st.lists(values, min_size=1, max_size=3).map(tuple)
    return st.none() | values if schema.get("null") else values


def fields_strategy(owner) -> dict:
    return {spec_field.name: value_strategy(spec_field.metadata)
            for spec_field in fields(owner) if spec_field.metadata}


@st.composite
def specs(draw) -> ExperimentSpec:
    kind = draw(st.sampled_from(WORKLOAD_KINDS))
    sections = {}
    for name, owner in SECTIONS.items():
        section = st.builds(owner, **fields_strategy(owner))
        if name in SECTION_RULES:
            section = section.filter(SECTION_RULES[name])
        sections[name] = draw(section)
    if kind in SINGLE_PIPELINE_KINDS:
        pipelines = (draw(st.sampled_from(PIPELINES)),)
    elif kind == "sweep":
        pipelines = tuple(draw(st.lists(st.sampled_from(PIPELINES),
                                        max_size=3, unique=True)))
    else:
        pipelines = ()
    if kind == "fanout":
        names = resolve_pipeline(pipelines[0]).strategy_names()
        sections["fanout"] = replace(
            sections["fanout"],
            strategy=draw(st.none() | st.sampled_from(names)))
    # Fault gating: fail-stop shapes and recovery knobs need the control
    # plane, and only the simulated service kinds inject faults at all.
    faults = sections["faults"]
    if kind != "control":
        faults = replace(faults, blackouts=0, crash_windows=0,
                         checkpoint_epochs=0, shed_slo=False)
    if kind not in ("serve", "control", "stream"):
        faults = replace(faults, stragglers=0, slowdowns=0, brownouts=0)
    sections["faults"] = faults
    top = draw(st.fixed_dictionaries(fields_strategy(ExperimentSpec)))
    return ExperimentSpec(kind=kind, pipelines=pipelines, **sections,
                          **top)


def check_round_trip(spec: ExperimentSpec) -> None:
    spec.validate()
    payload = spec.to_dict()
    rebuilt = ExperimentSpec.from_dict(payload)
    assert rebuilt == spec
    assert rebuilt.to_dict() == payload
    assert rebuilt.fingerprint() == spec.fingerprint()


def test_every_name_field_has_a_registry():
    resolvers = {spec_field.metadata["resolve"]
                 for owner in SECTIONS.values()
                 for spec_field in fields(owner)
                 if spec_field.metadata.get("kind") == "name"}
    assert resolvers <= set(REGISTRIES)


@given(specs())
@settings(max_examples=N_EXAMPLES, derandomize=True, deadline=None)
def test_spec_round_trip_is_identity(spec):
    check_round_trip(spec)
