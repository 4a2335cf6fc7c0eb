"""Golden regression tests for the ``presto`` report commands.

Covers ``sweep``/``diagnose``/``serve``/``ctl``/``stream``/``run``
and the single-pipeline report commands (``profile``/``tune``/
``fanout``/``cost``/``amortize``/``bottleneck``/``fio``).

Three pipelines (MP3, FLAC, NILM) are covered by the profiling
commands, and the serving layer pins two trace/policy combinations
(the steady baseline under FIFO, and the contended bursty scenario
under the cache-aware policy).  The declarative path is pinned through
``presto run`` on a shipped example spec.  The simulated backend is a
deterministic DES, so byte-identical output is the contract -- any
drift (model changes, report format changes, ranking changes) must
show up here and be acknowledged by regenerating the goldens with
``pytest tests/golden --update-golden``.
"""

from pathlib import Path

import pytest

SWEEP_CASES = {
    "sweep_mp3": ["sweep", "--quiet", "--pipelines", "MP3"],
    "sweep_flac": ["sweep", "--quiet", "--pipelines", "FLAC"],
    "sweep_nilm": ["sweep", "--quiet", "--pipelines", "NILM"],
}

DIAGNOSE_CASES = {
    "diagnose_mp3": ["diagnose", "MP3"],
    "diagnose_flac": ["diagnose", "FLAC", "--verify-top", "2"],
    "diagnose_nilm": ["diagnose", "NILM", "--threads", "4"],
}

SERVE_CASES = {
    "serve_steady_fifo": ["serve", "--tenants", "4", "--policy", "fifo",
                          "--trace", "steady", "--seed", "0"],
    "serve_bursty_cache_aware": ["serve", "--tenants", "8", "--policy",
                                 "cache-aware", "--trace", "bursty",
                                 "--seed", "0"],
}

CTL_CASES = {
    "ctl_steady_faulty": ["ctl", "--tenants", "4", "--policy",
                          "fair-share", "--trace", "steady", "--seed",
                          "5", "--fault-rate", "0.5", "--max-attempts",
                          "2", "--backoff-base", "30"],
    # Long-horizon operations trace under the seeded chaos timeline:
    # pins the fault engine end to end (window injection, checkpoint
    # replay, SLO shedding, fault-aware doctor findings).
    "ctl_operations_chaos": ["ctl", "--tenants", "8", "--policy",
                             "cache-aware", "--trace", "operations",
                             "--seed", "1", "--slots", "4", "--faults",
                             "stragglers=1,slowdowns=1,brownouts=1,"
                             "blackouts=1,crash-windows=1,severity=0.6,"
                             "horizon=20000,checkpoint-epochs=2,"
                             "shed-slo=1"],
}

STREAM_CASES = {
    "stream_bursty": ["stream", "--tenants", "4", "--arrival", "burst",
                      "--rate", "2.0", "--requests", "16", "--batch",
                      "8", "--workers", "2", "--queue-bound", "4",
                      "--seed", "0"],
}

#: Single-pipeline report commands on the cheapest pipeline (MP3).
REPORT_CASES = {
    "profile_mp3": ["profile", "MP3"],
    "tune_mp3": ["tune", "MP3"],
    "fanout_mp3": ["fanout", "MP3"],
    "fanout_mp3_simulated": ["fanout", "MP3", "--simulate", "--trainers",
                             "1", "2"],
    "cost_mp3": ["cost", "MP3"],
    "amortize_mp3": ["amortize", "MP3"],
    "bottleneck_mp3": ["bottleneck", "MP3"],
    "fio": ["fio"],
}

#: Declarative-path cases; argv paths are relative to the repo root.
RUN_CASES = {
    "run_sweep_cv": ["run", "examples/experiments/sweep_cv.json"],
}

#: Telemetry cases: the report plus the Chrome trace JSON on stdout.
#: Pins both that tracing leaves the report untouched and that the
#: span timeline itself is deterministic.
TRACE_CASES = {
    "trace_steady": ["serve", "--tenants", "2", "--trace", "steady",
                     "--seed", "0", "--trace-out", "-"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_output_matches_golden(golden, name):
    golden.check(name, SWEEP_CASES[name])


@pytest.mark.parametrize("name", sorted(DIAGNOSE_CASES))
def test_diagnose_output_matches_golden(golden, name):
    golden.check(name, DIAGNOSE_CASES[name])


@pytest.mark.parametrize("name", sorted(SERVE_CASES))
def test_serve_output_matches_golden(golden, name):
    golden.check(name, SERVE_CASES[name])


@pytest.mark.parametrize("name", sorted(CTL_CASES))
def test_ctl_output_matches_golden(golden, name):
    golden.check(name, CTL_CASES[name])


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_output_matches_golden(golden, name):
    golden.check(name, REPORT_CASES[name])


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_stream_output_matches_golden(golden, name):
    golden.check(name, STREAM_CASES[name])


def test_stream_golden_regenerates_without_diff(capsys):
    """Running the recorded argv and rebuilding the --update-golden
    payload must reproduce the committed golden byte-for-byte, so a
    regeneration run leaves no git diff behind."""
    import json

    from repro.cli import main
    name = "stream_bursty"
    argv = STREAM_CASES[name]
    path = Path(__file__).parent / "data" / f"{name}.json"
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    rebuilt = json.dumps({"argv": argv, "stdout": stdout}, indent=2) + "\n"
    assert rebuilt == path.read_text()


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_output_matches_golden(golden, name):
    golden.check(name, TRACE_CASES[name])


def test_trace_golden_report_prefix_and_payload_validate():
    """The trace golden splits into the untraced serve report (byte
    prefix) followed by a schema-valid Chrome trace payload."""
    import json

    from repro.obs.tracing import validate_chrome_trace
    path = Path(__file__).parent / "data" / "trace_steady.json"
    stdout = json.loads(path.read_text())["stdout"]
    lines = stdout.splitlines()
    payload = json.loads("\n".join(lines[lines.index("{"):]))
    assert validate_chrome_trace(payload) > 0
    categories = {event.get("cat") for event in payload["traceEvents"]
                  if event["ph"] == "X"}
    assert {"job", "queue", "epoch", "offline"} <= categories


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_output_matches_golden(golden, name, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parents[2])
    golden.check(name, RUN_CASES[name])


def test_diagnose_attribution_is_well_formed(golden, capsys):
    """Structural gate on top of the byte diff: fractions in the
    diagnosis table parse back and sum to 1.0 +- 0.01 per strategy."""
    from repro.cli import main
    assert main(["diagnose", "MP3"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()
            if line.startswith("|") and "strategy" not in line
            and "---" not in line]
    assert rows, "diagnosis table missing"
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        fractions = [float(value) for value in cells[2:6]]
        assert all(value >= 0 for value in fractions)
        assert sum(fractions) == pytest.approx(1.0, abs=0.01)
