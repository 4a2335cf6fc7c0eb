"""Pinned spec fingerprints and ``to_dict`` shapes.

Spec fingerprints key the profile cache and appear in every run's
provenance, and ``to_dict`` is the on-disk spec format.  Both must stay
put when the spec classes are refactored: these digests were recorded
from the shipped example specs and from a default spec of every
workload kind.  A change here orphans cache entries and saved specs;
it needs a ``SPEC_SCHEMA_VERSION`` bump, not a silent repin.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, FaultsSpec, load_spec
from repro.api.spec import SINGLE_PIPELINE_KINDS, WORKLOAD_KINDS

EXAMPLES_DIR = Path(__file__).resolve().parents[2] \
    / "examples" / "experiments"

EXAMPLE_FINGERPRINTS = {
    "control_faulty_8.yaml":
        "f053dc191da82b346611b9df671937c7abfa7446e1ced3c63238bb118de0bfa3",
    "diagnose_verify_flac.json":
        "88c44e9875ed2efa42ac9a77cc5a127caab7b09d9e289d812e223118604451fb",
    "serve_bursty_64.yaml":
        "ebf9934789c0f68cb6c0d01654a31c3b94fb6ce856a7b88836ff5a4fb2c6eba9",
    "stream_burst_16.yaml":
        "8242c640db2cb8b7acb1fa794860387696b80e86717ef8d43d8f8ce7c39a51a0",
    "sweep_cv.json":
        "83dceefaa21b093051c61243446ebe24c1bb43f92aa4808060c06012c3187b84",
}

#: kind -> (fingerprint, sha256 prefix of the ordered to_dict JSON).
DEFAULT_PINS = {
    "profile": ("575a8b2c45a0e548a664d5f426a29c6001f408cb67a9b072271feb29"
                "d0166a17", "29dceb617e1c9889"),
    "sweep": ("b6dfd5b881d81bc812d625fa64ace7ef4345277d8c9214dd2108ba8646"
              "1dab96", "e5ea943009b74829"),
    "tune": ("d50cbbca38e879d5f452e685f389d317b5ac082f9e6d137bc10ef230686"
             "242cb", "bb26cf6713d89582"),
    "diagnose": ("b78bfbfbc3b56209cdadbc35b47675f52c324b9c29616f5cc0b1119"
                 "ffd3ed4bc", "aaa588a9ab73df9d"),
    "serve": ("a46150f1484fb4de4a5920ea6b491cc5517682e66d211c2c9aae1c0341"
              "2fde25", "bcdf2e965baca816"),
    "control": ("22237365e32ae8c72ed941bf1d2c2956bfd618207e56ed0d56f08784"
                "9d1eac8b", "78bee7d94c34eec8"),
    "fanout": ("60f0fa7f9530f97f6390be71db85cd3561a16636a93e295da9d6afe16"
               "9b74cd6", "0cfdbb30cd75e261"),
    "stream": ("630aa9ad7d27703e9d0bca67b52c6a01a1a4e185bc1212a62385f18e2b"
               "d5314c", "03e2c1379b0db8ee"),
}


def test_every_example_and_kind_is_pinned():
    assert sorted(EXAMPLE_FINGERPRINTS) \
        == sorted(path.name for path in EXAMPLES_DIR.glob("*.*"))
    assert sorted(DEFAULT_PINS) == sorted(WORKLOAD_KINDS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_FINGERPRINTS))
def test_example_fingerprint_is_pinned(name):
    spec = load_spec(EXAMPLES_DIR / name)
    assert spec.fingerprint() == EXAMPLE_FINGERPRINTS[name]


@pytest.mark.parametrize("kind", sorted(DEFAULT_PINS))
def test_default_spec_fingerprint_and_shape_are_pinned(kind):
    pipelines = ("MP3",) if kind in SINGLE_PIPELINE_KINDS else ()
    spec = ExperimentSpec(kind=kind, pipelines=pipelines)
    fingerprint, shape = DEFAULT_PINS[kind]
    assert spec.fingerprint() == fingerprint
    ordered = json.dumps(spec.to_dict()).encode()
    assert hashlib.sha256(ordered).hexdigest()[:16] == shape


def test_faults_payload_fingerprint_is_pinned():
    spec = ExperimentSpec(kind="control", faults=FaultsSpec(
        stragglers=1, blackouts=2, severity=0.6, shed_slo=True))
    assert spec.fingerprint() == ("0ac71b6b5a97490bee10edf722949fa5b7f16d"
                                  "69af3c4399f85190237fac0554")
