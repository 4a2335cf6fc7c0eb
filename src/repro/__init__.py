"""PRESTO reproduction: preprocessing-strategy profiling and optimisation.

Reproduces "Where Is My Training Bottleneck? Hidden Trade-Offs in Deep
Learning Preprocessing Pipelines" (Isenko et al., SIGMOD 2022): the
PRESTO profiling library, the seven profiled pipelines, and the simulated
hardware substrate used to regenerate every table and figure.

Quickstart::

    from repro import (SimulatedBackend, StrategyProfiler,
                       StrategyAnalysis, get_pipeline)

    profiler = StrategyProfiler(SimulatedBackend())
    profiles = profiler.profile_pipeline(get_pipeline("CV"))
    analysis = StrategyAnalysis(profiles)
    print(analysis.summary())

Full-catalog sweeps fan out and memoize via the exec engine::

    from repro import ProfileCache, SimulatedBackend, SweepEngine

    engine = SweepEngine(SimulatedBackend(), executor=4,
                         cache=ProfileCache("~/.cache/presto"))
    result = engine.sweep()          # all seven paper pipelines

The declarative front door expresses any study as one serializable
spec and runs it through the Session facade (``presto run``)::

    from repro import ExperimentSpec, Session

    spec = ExperimentSpec(kind="sweep", pipelines=("MP3", "FLAC"))
    artifact = Session().run(spec)   # Frame + report + provenance
    print(artifact.report)
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api.loader": ("load_spec",),
    "repro.api.plan": ("ExperimentPlan",),
    "repro.api.spec": ("ExperimentSpec",),
    "repro.api.artifact": ("RunArtifact",),
    "repro.api.session": ("Session",),
    "repro.backends.analytic": ("AnalyticModel",),
    "repro.backends.base": ("Environment", "RunConfig"),
    "repro.backends.inprocess": ("InProcessBackend",),
    "repro.backends.simulated": ("SimulatedBackend",),
    "repro.core.analysis": ("ObjectiveWeights", "StrategyAnalysis"),
    "repro.core.autotune": ("AutoTuner",),
    "repro.core.frame": ("Frame",),
    "repro.core.profiler": ("StrategyProfiler",),
    "repro.core.strategy": ("Strategy", "enumerate_strategies"),
    "repro.diagnosis.doctor": ("BottleneckDoctor",),
    "repro.exec.cache": ("ProfileCache",),
    "repro.exec.engine": ("SweepEngine", "SweepResult"),
    "repro.pipelines.base": ("PipelineSpec",),
    "repro.pipelines.registry": ("all_pipelines", "get_pipeline"),
    "repro.serve.jobs": ("JobSpec", "generate_trace"),
    "repro.serve.service": ("PreprocessingService", "ServiceReport"),
    "repro.serve.sweep": ("sweep_policies",),
})

__version__ = "1.1.0"

__all__ = [
    "AnalyticModel",
    "AutoTuner",
    "BottleneckDoctor",
    "Environment",
    "ExperimentPlan",
    "ExperimentSpec",
    "Frame",
    "InProcessBackend",
    "JobSpec",
    "ObjectiveWeights",
    "PipelineSpec",
    "PreprocessingService",
    "ProfileCache",
    "RunArtifact",
    "RunConfig",
    "ServiceReport",
    "Session",
    "SimulatedBackend",
    "Strategy",
    "StrategyAnalysis",
    "StrategyProfiler",
    "SweepEngine",
    "SweepResult",
    "all_pipelines",
    "enumerate_strategies",
    "generate_trace",
    "get_pipeline",
    "load_spec",
    "sweep_policies",
    "__version__",
]
