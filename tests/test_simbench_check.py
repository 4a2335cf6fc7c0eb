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
    return tool.verdict


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
