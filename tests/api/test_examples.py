"""The shipped example specs stay valid and reproduce their subcommands.

Acceptance contract of the declarative API: ``presto run`` on each spec
in ``examples/experiments/`` produces the same report (and the same
spec fingerprint in provenance) as the equivalent classic subcommand.
The cheap validity half (every example loads and plans) runs for all
files; the execution-equivalence half runs the real workloads, the
64-tenant serve scenario included.
"""

from pathlib import Path

import pytest

from repro.api import Session, build_plan, load_spec

EXAMPLES_DIR = Path(__file__).resolve().parents[2] \
    / "examples" / "experiments"

#: Example spec -> the classic subcommand argv it must reproduce.
EQUIVALENTS = {
    "sweep_cv.json": ["sweep", "--quiet", "--pipelines", "CV"],
    "diagnose_verify_flac.json": ["diagnose", "FLAC", "--verify-top", "2"],
    "serve_bursty_64.yaml": ["serve", "--tenants", "64", "--trace",
                             "bursty", "--policy", "cache-aware",
                             "--slots", "16", "--seed", "0"],
    "control_faulty_8.yaml": ["ctl", "--tenants", "8", "--trace",
                              "steady", "--policy", "fair-share",
                              "--fault-rate", "0.25",
                              "--admission-limit", "2", "--autoscale",
                              "--max-slots", "4", "--seed", "1"],
}


def example_files() -> list:
    return sorted(EXAMPLES_DIR.glob("*.*"))


def test_examples_directory_is_populated():
    names = [path.name for path in example_files()]
    assert set(EQUIVALENTS) <= set(names)


@pytest.mark.parametrize("path", example_files(),
                         ids=lambda path: path.name)
def test_every_shipped_example_loads_and_plans(path):
    plan = build_plan(load_spec(path))
    assert plan.job_count > 0
    assert plan.fingerprint
    assert plan.describe()


@pytest.mark.parametrize("name", sorted(EQUIVALENTS))
def test_run_reproduces_the_equivalent_subcommand(name, capsys):
    from repro.cli import main
    spec_path = EXAMPLES_DIR / name
    assert main(["run", str(spec_path)]) == 0
    via_spec = capsys.readouterr().out
    assert main(EQUIVALENTS[name]) == 0
    via_flags = capsys.readouterr().out
    assert via_spec == via_flags


class _Stop(Exception):
    """Abort the shim after capturing its spec (no execution)."""


@pytest.mark.parametrize("name", sorted(EQUIVALENTS))
def test_example_fingerprint_matches_the_shim_spec(name, monkeypatch):
    """The spec file and the CLI shim describe the same experiment."""
    from repro import cli
    spec = load_spec(EXAMPLES_DIR / name)
    captured = {}

    def capture(self, shim_spec, telemetry=None):
        captured["fingerprint"] = shim_spec.fingerprint()
        raise _Stop()

    monkeypatch.setattr(Session, "run", capture)
    args = cli._build_parser().parse_args(EQUIVALENTS[name])
    with pytest.raises(_Stop):
        cli._dispatch(args)
    assert captured["fingerprint"] == spec.fingerprint()
