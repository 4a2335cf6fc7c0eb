"""The bottleneck doctor: attribute, recommend, verify.

:class:`BottleneckDoctor` is the advisory layer the paper's question
ultimately asks for.  It profiles every legal strategy of a pipeline
through the existing :class:`~repro.exec.engine.SweepEngine` (so
``--jobs`` fan-out and the profile cache apply unchanged), attributes
each epoch's thread-time to CPU / storage / decode / stall, proposes
ranked rewrites with predicted speedups, and -- on request -- *verifies*
the top recommendations by actually re-running the rewritten strategies
and reporting predicted-vs-measured error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.backends.analytic import AnalyticModel
from repro.backends.base import Backend, Environment, RunConfig
from repro.core.frame import Frame
from repro.core.profiler import StrategyProfile
from repro.diagnosis.attribution import ResourceAttribution, attribute
from repro.diagnosis.rewrites import Rewrite, propose_rewrites
from repro.errors import DiagnosisError
from repro.pipelines.base import PipelineSpec


@dataclass
class StrategyDiagnosis:
    """One strategy's attribution plus its ranked rewrites."""

    profile: StrategyProfile
    attribution: ResourceAttribution
    rewrites: list[Rewrite] = field(default_factory=list)

    @property
    def strategy_name(self) -> str:
        return self.profile.strategy.name

    @property
    def top_rewrite(self) -> Rewrite:
        return self.rewrites[0]

    def to_record(self) -> dict:
        """Diagnosis-aware report row (the ``core`` frame columns plus
        attribution source and the headline recommendation)."""
        record = self.profile.to_record()
        shares = self.attribution.as_dict()
        record.update({
            "cpu_frac": round(shares["cpu"], 4),
            "storage_frac": round(shares["storage"], 4),
            "decode_frac": round(shares["decode"], 4),
            "stall_frac": round(shares["stall"], 4),
            "bound": self.attribution.dominant,
            "attribution_source": self.attribution.source,
            "top_rewrite": self.top_rewrite.kind,
            "predicted_speedup": round(
                self.top_rewrite.predicted_speedup, 3),
        })
        return record

    def to_dict(self) -> dict:
        """Machine-readable export (the uniform doctor schema)."""
        return {
            "strategy": self.strategy_name,
            "attribution": self.attribution.as_dict(),
            "bound": self.attribution.dominant,
            "attribution_source": self.attribution.source,
            "rewrites": [rewrite.to_dict() for rewrite in self.rewrites],
        }


@dataclass
class VerifiedRewrite:
    """A rewrite re-run through a backend, with prediction error."""

    diagnosis: StrategyDiagnosis
    rewrite: Rewrite
    measured_sps: float
    #: The verification run's own profile (None for legacy callers);
    #: lets cost accounting include what verification executed.
    profile: Optional[StrategyProfile] = None

    @property
    def measured_speedup(self) -> float:
        baseline = self.rewrite.baseline_sps
        return self.measured_sps / baseline if baseline > 0 else 0.0

    @property
    def prediction_error(self) -> float:
        """Relative error of the predicted throughput vs measured."""
        if self.measured_sps <= 0:
            return float("inf")
        return (self.rewrite.predicted_sps
                - self.measured_sps) / self.measured_sps

    @property
    def sign_matches(self) -> bool:
        """Did the measured speedup land on the predicted side of 1.0?"""
        return ((self.rewrite.predicted_speedup >= 1.0)
                == (self.measured_speedup >= 1.0))

    def to_dict(self) -> dict:
        return {
            "strategy": self.diagnosis.strategy_name,
            "rewrite": self.rewrite.to_dict(),
            "measured_sps": self.measured_sps,
            "measured_speedup": self.measured_speedup,
            "prediction_error": self.prediction_error,
            "sign_matches": self.sign_matches,
        }

    def describe(self) -> str:
        return (f"{self.rewrite.kind} on "
                f"{self.diagnosis.strategy_name}: predicted "
                f"{self.rewrite.predicted_speedup:.2f}x, measured "
                f"{self.measured_speedup:.2f}x "
                f"({self.rewrite.metric} {self.measured_sps:.0f} SPS, "
                f"prediction error {self.prediction_error:+.1%})")


@dataclass
class PipelineDiagnosis:
    """The doctor's full answer for one pipeline."""

    pipeline: str
    config: RunConfig
    strategies: list[StrategyDiagnosis] = field(default_factory=list)

    def frame(self) -> Frame:
        """Diagnosis report frame, one row per strategy."""
        return Frame.from_records(
            [diagnosis.to_record() for diagnosis in self.strategies])

    def best(self) -> StrategyDiagnosis:
        """The highest-throughput strategy's diagnosis."""
        return max(self.strategies,
                   key=lambda diagnosis: diagnosis.profile.throughput)

    def ranked_rewrites(self) -> list[tuple[StrategyDiagnosis, Rewrite]]:
        """All (strategy, rewrite) pairs, best predicted speedup first."""
        pairs = [(diagnosis, rewrite)
                 for diagnosis in self.strategies
                 for rewrite in diagnosis.rewrites]
        pairs.sort(key=lambda pair: (-pair[1].predicted_speedup,
                                     pair[0].strategy_name, pair[1].kind))
        return pairs

    def to_dict(self) -> dict:
        """Machine-readable export (the uniform doctor schema)."""
        return {
            "doctor": "pipeline",
            "pipeline": self.pipeline,
            "strategies": [diagnosis.to_dict()
                           for diagnosis in self.strategies],
        }

    def to_markdown(self) -> str:
        """The ``presto diagnose`` report body."""
        table = self.frame().select([
            "strategy", "throughput_sps", "cpu_frac", "storage_frac",
            "decode_frac", "stall_frac", "bound", "top_rewrite",
            "predicted_speedup",
        ]).to_markdown()
        lines = [table, "", "rewrites (per strategy, best first):"]
        for diagnosis in self.strategies:
            lines.append(f"  {diagnosis.strategy_name}  "
                         f"[{diagnosis.attribution.describe()}]")
            for rank, rewrite in enumerate(diagnosis.rewrites, start=1):
                lines.append(f"    {rank}. {rewrite.describe()}")
        return "\n".join(lines)


def verification_report(verified: Sequence[VerifiedRewrite]) -> str:
    if not verified:
        return "verification: no verifiable rewrites selected"
    lines = [f"verification (top {len(verified)}):"]
    for item in verified:
        lines.append(f"  {item.describe()}")
    return "\n".join(lines)


class BottleneckDoctor:
    """Profiles, attributes, recommends and verifies.

    ``jobs``/``cache`` mirror the sweep-engine knobs of the profiling
    commands (the default backend is the simulated one).  The analytic
    ``model`` anchors rewrite predictions and supplies attribution for
    backends that measure no traces.
    """

    def __init__(self, backend: Optional[Backend] = None,
                 jobs: int = 1, cache=None,
                 model: Optional[AnalyticModel] = None):
        if backend is None:
            from repro.backends.simulated import SimulatedBackend
            backend = SimulatedBackend()
        from repro.exec.engine import SweepEngine
        self.engine = SweepEngine(backend, jobs=jobs, cache=cache)
        self.environment: Environment = self.engine.environment
        self.model = model or AnalyticModel(self.environment)

    # -- diagnosis ----------------------------------------------------------

    def diagnose(self, pipeline: PipelineSpec,
                 config: Optional[RunConfig] = None,
                 sample_count: Optional[int] = None) -> PipelineDiagnosis:
        """Profile every legal split of ``pipeline`` and diagnose each."""
        config = config or RunConfig()
        profiles = self.engine.profile_pipeline(pipeline, config=config,
                                                sample_count=sample_count)
        return self.diagnose_profiles(profiles, pipeline=pipeline.name,
                                      config=config)

    def diagnose_profiles(self, profiles: Sequence[StrategyProfile],
                          pipeline: Optional[str] = None,
                          config: Optional[RunConfig] = None,
                          ) -> PipelineDiagnosis:
        """Diagnose already-profiled strategies (no re-execution)."""
        if not profiles:
            raise DiagnosisError("no profiles to diagnose")
        pipeline = pipeline or profiles[0].result.pipeline
        config = config or profiles[0].strategy.config
        diagnosis = PipelineDiagnosis(pipeline=pipeline, config=config)
        for profile in profiles:
            attribution = attribute(profile, environment=self.environment,
                                    model=self.model)
            rewrites = propose_rewrites(profile, attribution,
                                        environment=self.environment,
                                        model=self.model)
            diagnosis.strategies.append(StrategyDiagnosis(
                profile=profile, attribution=attribution,
                rewrites=rewrites))
        return diagnosis

    # -- verification --------------------------------------------------------

    def verify(self, diagnosis: PipelineDiagnosis,
               top: int = 2) -> list[VerifiedRewrite]:
        """Re-run the ``top`` N verifiable rewrites; measure vs predict.

        Rewrites are drawn across all strategies of the diagnosis in
        predicted-speedup order, deduplicated by rewritten strategy, and
        executed through the engine (one fan-out, cache-aware).
        """
        if top < 1:
            raise DiagnosisError(f"verify-top must be >= 1, got {top}")
        selected: list[tuple[StrategyDiagnosis, Rewrite]] = []
        seen: set[str] = set()
        for strategy_diagnosis, rewrite in diagnosis.ranked_rewrites():
            if not rewrite.verifiable:
                continue
            uid = rewrite.strategy.uid
            if uid in seen:
                continue
            seen.add(uid)
            selected.append((strategy_diagnosis, rewrite))
            if len(selected) == top:
                break
        if not selected:
            return []
        profiles = self.engine.profile(
            [rewrite.strategy for _, rewrite in selected])
        verified = []
        for (strategy_diagnosis, rewrite), profile in zip(selected,
                                                          profiles):
            measured = (profile.cached_throughput
                        if rewrite.metric == "cached"
                        else profile.throughput)
            verified.append(VerifiedRewrite(
                diagnosis=strategy_diagnosis, rewrite=rewrite,
                measured_sps=measured, profile=profile))
        return verified
