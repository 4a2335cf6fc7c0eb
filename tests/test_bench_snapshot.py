"""The committed perf snapshot must agree with the pinned event counts.

``BENCH_serve.json`` (``make bench``) records wall time beside the
deterministic event count of each scenario; ``benchmarks/perf/
baseline.json`` pins those counts (``make bench-check``).  When a model
or kernel change repins the baseline, the snapshot's wall times belong
to the old code, so the snapshot has to be regenerated too.  This test
makes a stale snapshot fail instead of going unnoticed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = json.loads((ROOT / "BENCH_serve.json").read_text())
BASELINE = json.loads(
    (ROOT / "benchmarks" / "perf" / "baseline.json").read_text())


def _pinned():
    """``(label, baseline entry, snapshot lookup)`` per pinned scenario."""
    for name, policies in sorted(BASELINE["serve"].items()):
        for policy, expected in sorted(policies.items()):
            yield (f"serve/{name}/{policy}", expected,
                   lambda s, n=name, p=policy: s["serve"][n]["policies"][p])
    for section in ("stream", "ctl"):
        for name, expected in sorted(BASELINE[section].items()):
            yield (f"{section}/{name}", expected,
                   lambda s, c=section, n=name: s[c][n])
    yield "link10k", BASELINE["link10k"], lambda s: s["link10k"]


@pytest.mark.parametrize("label,expected,lookup", [
    pytest.param(*case, id=case[0]) for case in _pinned()])
def test_snapshot_events_match_baseline(label, expected, lookup):
    try:
        recorded = lookup(SNAPSHOT)
    except KeyError:
        pytest.fail(f"BENCH_serve.json has no {label} entry; "
                    "regenerate it with `make bench`")
    assert recorded["events"] == expected["events"], (
        f"BENCH_serve.json {label} records {recorded['events']} events, "
        f"baseline.json pins {expected['events']}; regenerate the "
        "snapshot with `make bench`")
