"""Host-time trend analysis over a series of ``SIMBENCH.json`` snapshots.

``make simbench-check`` (``tools/simbench_check.py``) runs each simbench
workload once and writes the result lines to ``SIMBENCH.json`` as
``{workload: {"metrics": {name: {"value": v, ...}}, ...}}``; CI uploads
one per run.  This module reads one end-to-end metric per workload from
each snapshot, computes its delta between consecutive snapshots, and
flags regressions.  The metric names are ``BENCHMARK.json``'s
end-to-end ones, and the regression direction is metric-aware:

* ``wall_ms_per_unit``, ``setup_s``, ``peak_rss_mb`` -- higher is worse;
* ``events_per_unit`` -- *any* change is flagged (deterministic cost
  drifted, which must be an acknowledged decision, never an accident).

Exposed as ``presto trend A.json B.json ...``.
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
#: change is a regression ("up" or "any").
METRIC_DIRECTIONS = {
    "wall_ms_per_unit": "up",
    "setup_s": "up",
    "peak_rss_mb": "up",
    "events_per_unit": "any",
}

#: The metric compared when none is named.
DEFAULT_METRIC = "wall_ms_per_unit"


@dataclass(frozen=True)
class TrendPoint:
    """One workload's change between two consecutive snapshots."""

    workload: str
    metric: str
    before: float
    after: float
    delta_pct: float
    regression: bool

    def to_dict(self) -> dict:
        return {"workload": self.workload, "metric": self.metric,
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
                "workload": point.workload,
                "before": round(point.before, 3),
                "after": round(point.after, 3),
                "delta_%": round(point.delta_pct, 2),
                "flag": "REGRESSION" if point.regression else "",
            })
        if not records:
            return "(no comparable workloads)"
        return Frame.from_records(records).to_markdown()

    def describe(self) -> str:
        lines = [f"simbench trend: {self.metric} across "
                 f"{' -> '.join(self.labels)}",
                 self.to_markdown()]
        bound = ("(any change)" if METRIC_DIRECTIONS[self.metric] == "any"
                 else f"beyond {self.threshold_pct:.1f}%")
        if self.regressions:
            lines.append(f"{len(self.regressions)} regression(s) {bound}:")
            for point in self.regressions:
                lines.append(f"  {point.workload}: {point.before:.3f} -> "
                             f"{point.after:.3f} ({point.delta_pct:+.2f}%)")
        else:
            lines.append(f"no regressions {bound}")
        return "\n".join(lines)


def load_snapshot(path: Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read simbench snapshot {path}: "
                                 f"{exc}") from exc
    if not isinstance(payload, dict) or not payload or not all(
            isinstance(result, dict)
            and isinstance(result.get("metrics"), dict)
            for result in payload.values()):
        raise ObservabilityError(
            f"{path} does not look like a SIMBENCH.json snapshot "
            "(expected {workload: {\"metrics\": ...}}, as `make "
            "simbench-check` writes)")
    return payload


def flatten_snapshot(snapshot: dict, metric: str) -> Dict[str, float]:
    """``workload -> metric value`` rows from one snapshot.

    Workloads whose result lacks the metric are skipped.
    """
    rows: Dict[str, float] = {}
    for workload, result in sorted(snapshot.items()):
        entry = result["metrics"].get(metric)
        if isinstance(entry, dict) and "value" in entry:
            rows[workload] = float(entry["value"])
    return rows


def analyze(snapshots: Sequence[dict], labels: Sequence[str],
            metric: str = DEFAULT_METRIC,
            threshold_pct: float = 5.0) -> TrendReport:
    """Compare consecutive snapshots; flag per-workload regressions."""
    if metric not in METRIC_DIRECTIONS:
        raise ObservabilityError(
            f"unknown trend metric {metric!r}; "
            f"known: {sorted(METRIC_DIRECTIONS)}")
    if len(snapshots) < 2:
        raise ObservabilityError(
            "trend analysis needs at least two snapshots")
    if len(labels) != len(snapshots):
        raise ObservabilityError(
            f"trend analysis needs one label per snapshot: got "
            f"{len(labels)} label(s) for {len(snapshots)} snapshots")
    direction = METRIC_DIRECTIONS[metric]
    report = TrendReport(metric=metric, labels=list(labels),
                         threshold_pct=threshold_pct)
    for index in range(1, len(snapshots)):
        before_rows = flatten_snapshot(snapshots[index - 1], metric)
        after_rows = flatten_snapshot(snapshots[index], metric)
        step = ("" if len(snapshots) == 2
                else f"[{labels[index - 1]}->{labels[index]}] ")
        for workload in sorted(set(before_rows) & set(after_rows)):
            before = before_rows[workload]
            after = after_rows[workload]
            delta_pct = ((after - before) / before * 100.0
                         if before else 0.0)
            if direction == "up":
                regression = delta_pct > threshold_pct
            else:  # "any": deterministic metric, exact match required
                regression = after != before
            report.points.append(TrendPoint(
                workload=step + workload, metric=metric,
                before=before, after=after,
                delta_pct=round(delta_pct, 4), regression=regression))
    return report


def analyze_files(paths: Sequence[Path], metric: str = DEFAULT_METRIC,
                  threshold_pct: float = 5.0,
                  labels: Optional[Sequence[str]] = None) -> TrendReport:
    snapshots = [load_snapshot(Path(path)) for path in paths]
    if labels is None:
        labels = [Path(path).name for path in paths]
    return analyze(snapshots, labels, metric=metric,
                   threshold_pct=threshold_pct)
