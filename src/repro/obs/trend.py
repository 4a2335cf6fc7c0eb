"""Bench trend analysis over a series of ``BENCH_serve.json`` snapshots.

CI uploads one ``BENCH_serve.json`` per run (``make bench``); this module
flattens each snapshot into ``scenario -> metric`` rows, computes the
delta of every scenario between consecutive snapshots, and flags
regressions.  Regression direction is metric-aware:

* ``events_per_sec`` -- lower is worse (throughput drop);
* ``wall_seconds``   -- higher is worse (slowdown);
* ``events``         -- *any* change is flagged (deterministic cost
  drifted, which must be an acknowledged decision, never an accident).

Exposed as ``presto trend A.json B.json ...``; the snapshots come from
``benchmarks/perf/bench_serve.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.frame import Frame
from ..errors import ObservabilityError

__all__ = ["TrendPoint", "TrendReport", "load_snapshot", "flatten_snapshot",
           "analyze", "analyze_files"]

#: Metrics the trend tool knows how to compare, and which direction of
#: change is a regression ("down", "up", or "any").
METRIC_DIRECTIONS = {
    "events_per_sec": "down",
    "wall_seconds": "up",
    "events": "any",
}


@dataclass(frozen=True)
class TrendPoint:
    """One scenario's change between two consecutive snapshots."""

    scenario: str
    metric: str
    before: float
    after: float
    delta_pct: float
    regression: bool

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "metric": self.metric,
                "before": self.before, "after": self.after,
                "delta_pct": self.delta_pct, "regression": self.regression}


@dataclass
class TrendReport:
    """Per-step deltas across the snapshot series."""

    metric: str
    labels: List[str]
    points: List[TrendPoint] = field(default_factory=list)
    threshold_pct: float = 5.0

    @property
    def regressions(self) -> List[TrendPoint]:
        return [point for point in self.points if point.regression]

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "labels": list(self.labels),
            "threshold_pct": self.threshold_pct,
            "points": [point.to_dict() for point in self.points],
            "regressions": len(self.regressions),
        }

    def to_markdown(self) -> str:
        records = []
        for point in self.points:
            records.append({
                "scenario": point.scenario,
                "before": round(point.before, 3),
                "after": round(point.after, 3),
                "delta_%": round(point.delta_pct, 2),
                "flag": "REGRESSION" if point.regression else "",
            })
        if not records:
            return "(no comparable scenarios)"
        return Frame.from_records(records).to_markdown()

    def describe(self) -> str:
        lines = [f"bench trend: {self.metric} across "
                 f"{' -> '.join(self.labels)}",
                 self.to_markdown()]
        if self.regressions:
            lines.append(f"{len(self.regressions)} regression(s) beyond "
                         f"{self.threshold_pct:.1f}%:")
            for point in self.regressions:
                lines.append(f"  {point.scenario}: {point.before:.3f} -> "
                             f"{point.after:.3f} ({point.delta_pct:+.2f}%)")
        else:
            lines.append(f"no regressions beyond {self.threshold_pct:.1f}%")
        return "\n".join(lines)


def load_snapshot(path: Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read bench snapshot {path}: "
                                 f"{exc}") from exc
    if not isinstance(payload, dict) or (
            "serve" not in payload and "stream" not in payload):
        raise ObservabilityError(
            f"{path} does not look like a BENCH_serve.json snapshot "
            "(missing 'serve'/'stream' sections)")
    return payload


def flatten_snapshot(snapshot: dict, metric: str) -> Dict[str, float]:
    """``scenario-key -> metric`` rows from one snapshot.

    Keys: ``serve/<name>/<policy>``, ``stream/<name>``, ``link10k``.
    Scenarios that lack the metric are skipped (older schemas).
    """
    rows: Dict[str, float] = {}
    for name, payload in sorted(snapshot.get("serve", {}).items()):
        for policy, metrics in sorted(payload.get("policies", {}).items()):
            if metric in metrics:
                rows[f"serve/{name}/{policy}"] = float(metrics[metric])
    for name, metrics in sorted(snapshot.get("stream", {}).items()):
        if metric in metrics:
            rows[f"stream/{name}"] = float(metrics[metric])
    link = snapshot.get("link10k", {})
    if metric in link:
        rows["link10k"] = float(link[metric])
    return rows


def analyze(snapshots: Sequence[dict], labels: Sequence[str],
            metric: str = "events_per_sec",
            threshold_pct: float = 5.0) -> TrendReport:
    """Compare consecutive snapshots; flag per-scenario regressions."""
    if metric not in METRIC_DIRECTIONS:
        raise ObservabilityError(
            f"unknown trend metric {metric!r}; "
            f"known: {sorted(METRIC_DIRECTIONS)}")
    if len(snapshots) < 2:
        raise ObservabilityError(
            "trend analysis needs at least two snapshots")
    direction = METRIC_DIRECTIONS[metric]
    report = TrendReport(metric=metric, labels=list(labels),
                         threshold_pct=threshold_pct)
    for index in range(1, len(snapshots)):
        before_rows = flatten_snapshot(snapshots[index - 1], metric)
        after_rows = flatten_snapshot(snapshots[index], metric)
        step = ("" if len(snapshots) == 2
                else f"[{labels[index - 1]}->{labels[index]}] ")
        for scenario in sorted(set(before_rows) & set(after_rows)):
            before = before_rows[scenario]
            after = after_rows[scenario]
            delta_pct = ((after - before) / before * 100.0
                         if before else 0.0)
            if direction == "down":
                regression = delta_pct < -threshold_pct
            elif direction == "up":
                regression = delta_pct > threshold_pct
            else:  # "any": deterministic metric, exact match required
                regression = after != before
            report.points.append(TrendPoint(
                scenario=step + scenario, metric=metric,
                before=before, after=after,
                delta_pct=round(delta_pct, 4), regression=regression))
    return report


def analyze_files(paths: Sequence[Path], metric: str = "events_per_sec",
                  threshold_pct: float = 5.0,
                  labels: Optional[Sequence[str]] = None) -> TrendReport:
    snapshots = [load_snapshot(Path(path)) for path in paths]
    if labels is None:
        labels = [Path(path).name for path in paths]
    return analyze(snapshots, labels, metric=metric,
                   threshold_pct=threshold_pct)
