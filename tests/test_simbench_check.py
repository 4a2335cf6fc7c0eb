"""Verdict parsing and the SIMBENCH.json snapshot of the simbench
correctness gate (simbench_check)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "simbench_check.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("simbench_check", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verdict(tool):
    return lambda stdout: tool._parse(stdout)[1]


def test_a_correct_run_passes(verdict):
    assert verdict('progress\n{"correct": true, "attempted": 6, '
                   '"failed": 0, "metrics": {}}\n') == ""


@pytest.mark.parametrize("stdout,reason", [
    ("", "no output"),
    ("stream64_poisson seed 0: wall_s ...", "not JSON"),
    ("[1, 2]", "not a JSON object"),
    ('{"correct": false, "failed": 1}', "correct=False, failed=1"),
    ('{"correct": true, "failed": 2}', "failed=2"),
    ('{"failed": 0}', "correct=None"),
])
def test_anything_else_fails_with_a_reason(verdict, stdout, reason):
    assert reason in verdict(stdout)


def test_the_snapshot_keeps_each_passing_result_line(tool):
    passing = {"correct": True, "attempted": 6, "failed": 0,
               "metrics": {"wall_ms_per_unit": {"value": 1.5,
                                                "unit": "ms"}}}
    stdouts = {
        "serve64_hot_raw": "serve64_hot_raw seed 0: wall_s ...\n"
                           + json.dumps(passing) + "\n",
        "ctl_ops_chaos32": '{"correct": false, "failed": 1}',
        "stream64_poisson": "",
    }
    assert tool.snapshot(stdouts) == {"serve64_hot_raw": passing}
    assert tool.snapshot({}) == {}


def test_a_passing_run_prints_its_headline_metrics(tool):
    line = ('{"correct": true, "attempted": 6, "failed": 0, "metrics": '
            '{"wall_ms_per_unit": {"value": 0.03910947123958408, '
            '"unit": "ms"}, "setup_s": {"value": 0.1504, "unit": "s"}, '
            '"peak_rss_mb": {"value": 38.3515625, "unit": "MB"}, '
            '"events_per_unit": {"value": 11.962041666666666, '
            '"unit": "count"}}}')
    result = json.loads(line)
    assert tool.passing_line("stream64_poisson", result) == (
        "ok   stream64_poisson: wall_ms_per_unit 0.03911, "
        "peak_rss_mb 38.4, events_per_unit 11.962041666666666")
    assert tool.passing_line("serve64_hot_raw", {"metrics": {}}) == (
        "ok   serve64_hot_raw: wall_ms_per_unit -, peak_rss_mb -, "
        "events_per_unit -")
