"""The declarative experiment specification.

An :class:`ExperimentSpec` is the single serializable description of
"run this study": one workload kind (``profile | sweep | tune |
diagnose | serve | control | fanout | stream``), the pipelines it
touches, the run knobs
(:class:`RunSpec`), the hardware (:class:`EnvironmentSpec`), executor
and profile-cache settings (:class:`ExecSpec`) and the workload-specific
sub-specs.  Everything the four historical entry points
(StrategyProfiler/SweepEngine, AutoTuner, BottleneckDoctor,
PreprocessingService) take as constructor arguments and ad-hoc CLI
flags is expressible -- and therefore saveable, diffable and
replayable -- as one spec.

Round-tripping is lossless: ``ExperimentSpec.from_dict(spec.to_dict())
== spec`` for every workload kind (pinned by a hypothesis property
test).  ``from_dict`` validates key names per section and
:meth:`ExperimentSpec.validate` resolves every registry name through
:mod:`repro.api.resolve`, so errors are actionable ("unknown pipeline
'CV3'; did you mean 'CV'? valid pipelines: ...") rather than
tracebacks.

Fingerprinting reuses :mod:`repro.exec.fingerprint`: the spec
fingerprint digests the *resolved* canonical descriptions
(``describe_pipeline`` / ``describe_config`` /
``describe_environment``) that also key the
:class:`~repro.exec.cache.ProfileCache`, so every cache entry a run
produces is a pure function of the spec that requested it, and two
spellings of the same experiment (CLI flags vs JSON file) share one
fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from repro.api.resolve import (resolve_arrival, resolve_backend_name,
                               resolve_pipeline, resolve_pipeline_name,
                               resolve_policy, resolve_storage,
                               resolve_strategy_name, resolve_trace)
from repro.errors import SpecError

#: Workload kinds understood by the Session facade.
WORKLOAD_KINDS = ("profile", "sweep", "tune", "diagnose", "serve",
                  "control", "fanout", "stream")

#: Workloads that operate on exactly one pipeline.
SINGLE_PIPELINE_KINDS = ("profile", "tune", "diagnose", "fanout")

#: Bump when the spec schema changes so fingerprints of old spec files
#: cannot collide with differently-interpreted new ones.
SPEC_SCHEMA_VERSION = 1

_COMPRESSIONS = (None, "GZIP", "ZLIB")
_CACHE_MODES = ("none", "system", "application")
_TIE_BREAKS = ("arrival", "tenant")


def _require_keys(cls, payload: dict, section: str) -> None:
    """Reject unknown keys with the list of valid ones."""
    if not isinstance(payload, dict):
        raise SpecError(
            f"spec section {section!r} must be a mapping, "
            f"got {type(payload).__name__}")
    valid = {spec_field.name for spec_field in fields(cls)}
    unknown = sorted(set(payload) - valid)
    if unknown:
        raise SpecError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in spec "
            f"section {section!r}; valid keys: {', '.join(sorted(valid))}")


def _as_tuple(value) -> tuple:
    """Coerce JSON lists (and scalars) into tuples for frozen specs."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _is_number(value, integer: bool = False) -> bool:
    """``value`` is a finite number and not a bool (``True`` is an
    ``int`` in Python); with ``integer``, an ``int`` as well."""
    if isinstance(value, bool):
        return False
    if integer:
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass(frozen=True)
class RunSpec:
    """Per-run strategy knobs; maps 1:1 onto
    :class:`~repro.backends.base.RunConfig`."""

    threads: int = 8
    epochs: int = 1
    compression: Optional[str] = None
    cache_mode: str = "none"
    shuffle_buffer: int = 0

    def validate(self) -> None:
        _check(_is_number(self.threads, integer=True) and self.threads >= 1,
               f"run.threads must be a positive integer, "
               f"got {self.threads!r}")
        _check(_is_number(self.epochs, integer=True) and self.epochs >= 1,
               f"run.epochs must be a positive integer, got {self.epochs!r}")
        _check(self.compression in _COMPRESSIONS,
               f"run.compression must be one of {_COMPRESSIONS}, "
               f"got {self.compression!r}")
        _check(self.cache_mode in _CACHE_MODES,
               f"run.cache_mode must be one of {_CACHE_MODES}, "
               f"got {self.cache_mode!r}")
        _check(_is_number(self.shuffle_buffer, integer=True)
               and self.shuffle_buffer >= 0,
               f"run.shuffle_buffer must be >= 0, "
               f"got {self.shuffle_buffer!r}")

    def to_run_config(self):
        """The equivalent :class:`~repro.backends.base.RunConfig`."""
        from repro.backends.base import RunConfig
        return RunConfig(threads=self.threads, epochs=self.epochs,
                         compression=self.compression,
                         cache_mode=self.cache_mode,
                         shuffle_buffer=self.shuffle_buffer)


@dataclass(frozen=True)
class EnvironmentSpec:
    """Hardware selection: storage device plus execution backend."""

    storage: str = "ceph-hdd"
    backend: str = "simulated"

    def validate(self) -> None:
        resolve_storage(self.storage)
        resolve_backend_name(self.backend)

    def to_environment(self):
        """The equivalent :class:`~repro.backends.base.Environment`."""
        from repro.backends.base import Environment
        return Environment(storage=resolve_storage(self.storage))

    def to_backend(self):
        """Instantiate the execution backend on this environment."""
        environment = self.to_environment()
        if self.backend == "inprocess":
            from repro.backends import InProcessBackend
            return InProcessBackend(environment=environment)
        from repro.backends import SimulatedBackend
        return SimulatedBackend(environment)


@dataclass(frozen=True)
class ExecSpec:
    """Sweep-engine settings: worker fan-out, memoization, progress."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    progress: bool = False

    def validate(self) -> None:
        _check(_is_number(self.jobs, integer=True) and self.jobs >= 1,
               f"executor.jobs must be a positive integer, got {self.jobs!r}")
        _check(self.cache_dir is None or isinstance(self.cache_dir, str),
               f"executor.cache_dir must be a directory path or null, "
               f"got {self.cache_dir!r}")


@dataclass(frozen=True)
class TuneSpec:
    """Auto-tuning grid and objective (``kind: tune``)."""

    preprocessing_weight: float = 0.0
    storage_weight: float = 0.0
    throughput_weight: float = 1.0
    threads: tuple = (8,)
    compressions: tuple = (None, "GZIP", "ZLIB")
    cache_modes: tuple = ("none",)
    screen_keep: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "threads", _as_tuple(self.threads))
        object.__setattr__(self, "compressions",
                           _as_tuple(self.compressions))
        object.__setattr__(self, "cache_modes",
                           _as_tuple(self.cache_modes))

    def validate(self) -> None:
        weights = (self.preprocessing_weight, self.storage_weight,
                   self.throughput_weight)
        _check(all(_is_number(w) and w >= 0 for w in weights),
               f"tune weights must be finite non-negative numbers, "
               f"got {weights}")
        _check(any(weights),
               "at least one tune weight must be positive")
        _check(bool(self.threads)
               and all(_is_number(t, integer=True) and t >= 1
                       for t in self.threads),
               f"tune.threads must be positive integers, "
               f"got {self.threads!r}")
        _check(bool(self.compressions)
               and all(c in _COMPRESSIONS for c in self.compressions),
               f"tune.compressions must be a non-empty subset of "
               f"{_COMPRESSIONS}, got {self.compressions!r}")
        _check(bool(self.cache_modes)
               and all(m in _CACHE_MODES for m in self.cache_modes),
               f"tune.cache_modes entries must be among {_CACHE_MODES}, "
               f"got {self.cache_modes!r}")
        _check(_is_number(self.screen_keep)
               and 0.0 < self.screen_keep <= 1.0,
               f"tune.screen_keep must be in (0, 1], "
               f"got {self.screen_keep!r}")

    def to_weights(self):
        from repro.core.analysis import ObjectiveWeights
        return ObjectiveWeights(preprocessing=self.preprocessing_weight,
                                storage=self.storage_weight,
                                throughput=self.throughput_weight)


@dataclass(frozen=True)
class DiagnoseSpec:
    """Bottleneck-doctor options (``kind: diagnose``)."""

    verify_top: int = 0
    sample_count: Optional[int] = None

    def validate(self) -> None:
        _check(_is_number(self.verify_top, integer=True)
               and self.verify_top >= 0,
               f"diagnose.verify_top must be >= 0, got {self.verify_top!r}")
        _check(self.sample_count is None
               or (_is_number(self.sample_count, integer=True)
                   and self.sample_count >= 1),
               f"diagnose.sample_count must be a positive integer or null, "
               f"got {self.sample_count!r}")


@dataclass(frozen=True)
class ServeSpec:
    """Multi-tenant service scenario (``kind: serve``)."""

    tenants: int = 8
    trace: str = "steady"
    policy: str = "fifo"
    slots: int = 2
    tie_break: str = "arrival"

    def validate(self) -> None:
        _check(_is_number(self.tenants, integer=True) and self.tenants >= 1,
               f"serve.tenants must be a positive integer, "
               f"got {self.tenants!r}")
        _check(_is_number(self.slots, integer=True) and self.slots >= 1,
               f"serve.slots must be a positive integer, got {self.slots!r}")
        resolve_trace(self.trace)
        resolve_policy(self.policy, allow_all=True)
        _check(self.tie_break in _TIE_BREAKS,
               f"serve.tie_break must be one of {_TIE_BREAKS}, "
               f"got {self.tie_break!r}")


@dataclass(frozen=True)
class ControlSpec:
    """Control-plane scenario over the service (``kind: control``).

    The first five fields mirror :class:`ServeSpec` (the underlying
    service run); the rest configure the control features.  With the
    control defaults (no faults, no admission limit, no preemption, no
    autoscaling) a control run reproduces the equivalent serve run
    byte-for-byte -- the differential guarantee ``tests/ctl`` pins.
    """

    tenants: int = 8
    trace: str = "steady"
    policy: str = "fifo"
    slots: int = 2
    tie_break: str = "arrival"
    max_attempts: int = 3
    backoff_base: float = 60.0
    backoff_factor: float = 2.0
    fault_rate: float = 0.0
    admission_limit: Optional[int] = None
    preempt: bool = False
    autoscale: bool = False
    max_slots: int = 0
    autoscale_interval: float = 600.0

    def validate(self) -> None:
        _check(_is_number(self.tenants, integer=True) and self.tenants >= 1,
               f"control.tenants must be a positive integer, "
               f"got {self.tenants!r}")
        _check(_is_number(self.slots, integer=True) and self.slots >= 1,
               f"control.slots must be a positive integer, "
               f"got {self.slots!r}")
        resolve_trace(self.trace)
        resolve_policy(self.policy, allow_all=False)
        _check(self.tie_break in _TIE_BREAKS,
               f"control.tie_break must be one of {_TIE_BREAKS}, "
               f"got {self.tie_break!r}")
        _check(_is_number(self.max_attempts, integer=True)
               and self.max_attempts >= 1,
               f"control.max_attempts must be a positive integer, "
               f"got {self.max_attempts!r}")
        _check(_is_number(self.backoff_base)
               and self.backoff_base >= 0,
               f"control.backoff_base must be a finite number >= 0, "
               f"got {self.backoff_base!r}")
        _check(_is_number(self.backoff_factor)
               and self.backoff_factor >= 1.0,
               f"control.backoff_factor must be a finite number >= 1, "
               f"got {self.backoff_factor!r}")
        _check(_is_number(self.fault_rate)
               and 0.0 <= self.fault_rate <= 1.0,
               f"control.fault_rate must be within [0, 1], "
               f"got {self.fault_rate!r}")
        _check(self.admission_limit is None
               or (_is_number(self.admission_limit, integer=True)
                   and self.admission_limit >= 1),
               f"control.admission_limit must be a positive integer or "
               f"null, got {self.admission_limit!r}")
        _check(_is_number(self.max_slots, integer=True)
               and (self.max_slots == 0 or self.max_slots >= self.slots),
               f"control.max_slots must be 0 (auto) or >= slots, "
               f"got {self.max_slots!r}")
        _check(_is_number(self.autoscale_interval)
               and self.autoscale_interval > 0,
               f"control.autoscale_interval must be a finite positive "
               f"number, got {self.autoscale_interval!r}")

    def retry_policy(self):
        """The equivalent :class:`~repro.ctl.retry.RetryPolicy`."""
        from repro.ctl.retry import RetryPolicy
        return RetryPolicy(max_attempts=self.max_attempts,
                           backoff_base=float(self.backoff_base),
                           backoff_factor=float(self.backoff_factor))

    def autoscale_config(self):
        """The autoscaler bounds, or ``None`` when autoscaling is off."""
        if not self.autoscale:
            return None
        from repro.ctl.dispatcher import AutoscaleConfig
        max_slots = self.max_slots or 2 * self.slots
        return AutoscaleConfig(min_slots=1, max_slots=max_slots,
                               interval=float(self.autoscale_interval))


@dataclass(frozen=True)
class StreamSpec:
    """Streaming inference scenario (``kind: stream``).

    Describes a seeded tenant population of request streams: the
    arrival process shape and rate, requests per tenant, the
    batch-size-vs-latency knob, prefetch width (workers per tenant),
    admission control (queue bound, shed-vs-block on overflow) and the
    per-request latency SLO as a stretch over the uncontended analytic
    batch time (``None``/0 disables deadlines).
    """

    tenants: int = 4
    arrival: str = "poisson"
    rate: float = 1.0
    requests: int = 32
    batch: int = 32
    workers: int = 2
    queue_bound: int = 0
    slo_stretch: Optional[float] = 3.0
    shed: bool = False

    def validate(self) -> None:
        _check(_is_number(self.tenants, integer=True) and self.tenants >= 1,
               f"stream.tenants must be a positive integer, "
               f"got {self.tenants!r}")
        resolve_arrival(self.arrival)
        _check(_is_number(self.rate) and self.rate > 0,
               f"stream.rate must be a finite positive number, "
               f"got {self.rate!r}")
        _check(_is_number(self.requests, integer=True) and self.requests >= 1,
               f"stream.requests must be a positive integer, "
               f"got {self.requests!r}")
        _check(_is_number(self.batch, integer=True) and self.batch >= 1,
               f"stream.batch must be a positive integer, "
               f"got {self.batch!r}")
        _check(_is_number(self.workers, integer=True) and self.workers >= 1,
               f"stream.workers must be a positive integer, "
               f"got {self.workers!r}")
        _check(_is_number(self.queue_bound, integer=True)
               and self.queue_bound >= 0,
               f"stream.queue_bound must be >= 0 (0 = unbounded), "
               f"got {self.queue_bound!r}")
        _check(self.slo_stretch is None
               or (_is_number(self.slo_stretch)
                   and self.slo_stretch > 0),
               f"stream.slo_stretch must be a finite positive number or "
               f"null, got {self.slo_stretch!r}")
        _check(isinstance(self.shed, bool),
               f"stream.shed must be a boolean, got {self.shed!r}")


@dataclass(frozen=True)
class FaultsSpec:
    """Seeded chaos timeline attached to a serve/control/stream run.

    Counts select how many windows of each shape
    (:mod:`repro.faults.plan`) are drawn over ``[0, horizon)`` from the
    namespaced ``chaos-{seed}`` RNG stream; ``severity`` scales window
    lengths and magnitudes.  ``checkpoint_epochs`` and ``shed_slo``
    configure the control plane's graceful-degradation response and are
    only meaningful on ``kind: control``.  All-zero counts (the
    default) disable the engine entirely: the run is byte-identical to
    one with no ``faults:`` section at all.
    """

    stragglers: int = 0
    slowdowns: int = 0
    brownouts: int = 0
    blackouts: int = 0
    crash_windows: int = 0
    severity: float = 0.5
    #: Window-placement horizon in simulated seconds; windows landing
    #: past the run's natural end simply never bite.
    horizon: float = 21600.0
    checkpoint_epochs: int = 0
    shed_slo: bool = False

    @property
    def enabled(self) -> bool:
        return bool(self.stragglers or self.slowdowns or self.brownouts
                    or self.blackouts or self.crash_windows)

    def validate(self) -> None:
        for name in ("stragglers", "slowdowns", "brownouts",
                     "blackouts", "crash_windows"):
            value = getattr(self, name)
            _check(_is_number(value, integer=True) and value >= 0,
                   f"faults.{name} must be an integer >= 0, "
                   f"got {value!r}")
        _check(_is_number(self.severity)
               and 0.0 < self.severity <= 1.0,
               f"faults.severity must be in (0, 1], "
               f"got {self.severity!r}")
        _check(_is_number(self.horizon) and self.horizon > 0,
               f"faults.horizon must be a finite positive number, "
               f"got {self.horizon!r}")
        _check(_is_number(self.checkpoint_epochs, integer=True)
               and self.checkpoint_epochs >= 0,
               f"faults.checkpoint_epochs must be an integer >= 0, "
               f"got {self.checkpoint_epochs!r}")
        _check(isinstance(self.shed_slo, bool),
               f"faults.shed_slo must be a boolean, got {self.shed_slo!r}")

    def to_plan(self, seed: int, cores: int = 8):
        """The seeded :class:`~repro.faults.FaultPlan` (None if off)."""
        if not self.enabled:
            return None
        from repro.faults import generate_fault_plan
        return generate_fault_plan(
            seed, float(self.horizon), stragglers=self.stragglers,
            slowdowns=self.slowdowns, brownouts=self.brownouts,
            blackouts=self.blackouts, crash_windows=self.crash_windows,
            severity=float(self.severity), cores=cores)


@dataclass(frozen=True)
class FanoutSpec:
    """Trainer fan-out study (``kind: fanout``)."""

    strategy: Optional[str] = None
    trainers: tuple = (1, 2, 4, 8, 16)
    simulate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "trainers", _as_tuple(self.trainers))

    def validate(self) -> None:
        _check(bool(self.trainers)
               and all(_is_number(t, integer=True) and t >= 1
                       for t in self.trainers),
               f"fanout.trainers must be positive integers, "
               f"got {self.trainers!r}")
        _check(self.strategy is None or isinstance(self.strategy, str),
               f"fanout.strategy must be a split name or null, "
               f"got {self.strategy!r}")


#: Sub-spec sections of an ExperimentSpec, in serialization order.
_SECTIONS = {
    "run": RunSpec,
    "environment": EnvironmentSpec,
    "executor": ExecSpec,
    "tune": TuneSpec,
    "diagnose": DiagnoseSpec,
    "serve": ServeSpec,
    "control": ControlSpec,
    "stream": StreamSpec,
    "faults": FaultsSpec,
    "fanout": FanoutSpec,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One serializable experiment: workload kind plus every knob.

    ``pipelines`` is the pipeline selection: exactly one name for the
    single-pipeline kinds (profile/tune/diagnose/fanout), any subset for
    ``sweep`` (empty selects the paper's seven), and ignored by
    ``serve`` (the trace generator owns its pipeline mix).  ``seed``
    feeds the serve trace generator and is recorded in provenance for
    every workload.
    """

    kind: str
    pipelines: tuple = ()
    run: RunSpec = RunSpec()
    environment: EnvironmentSpec = EnvironmentSpec()
    executor: ExecSpec = ExecSpec()
    tune: TuneSpec = TuneSpec()
    diagnose: DiagnoseSpec = DiagnoseSpec()
    serve: ServeSpec = ServeSpec()
    control: ControlSpec = ControlSpec()
    stream: StreamSpec = StreamSpec()
    faults: FaultsSpec = FaultsSpec()
    fanout: FanoutSpec = FanoutSpec()
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pipelines", _as_tuple(self.pipelines))

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check the whole tree; returns self so calls can chain."""
        if self.kind not in WORKLOAD_KINDS:
            raise SpecError(
                f"unknown workload kind {self.kind!r}; valid kinds: "
                f"{', '.join(WORKLOAD_KINDS)}")
        if self.kind in SINGLE_PIPELINE_KINDS:
            _check(len(self.pipelines) == 1,
                   f"{self.kind!r} experiments need exactly one pipeline, "
                   f"got {len(self.pipelines)}: {list(self.pipelines)!r}")
        for pipeline in self.pipelines:
            resolve_pipeline_name(pipeline)
        _check(_is_number(self.seed, integer=True),
               f"seed must be an integer, got {self.seed!r}")
        _check(isinstance(self.name, str),
               f"name must be a string, got {self.name!r}")
        self.run.validate()
        self.environment.validate()
        self.executor.validate()
        if self.kind == "tune":
            self.tune.validate()
        elif self.kind == "diagnose":
            self.diagnose.validate()
        elif self.kind == "serve":
            self.serve.validate()
        elif self.kind == "control":
            self.control.validate()
        elif self.kind == "stream":
            self.stream.validate()
        elif self.kind == "fanout":
            self.fanout.validate()
            resolve_strategy_name(self.pipelines[0], self.fanout.strategy)
        self.faults.validate()
        _check(not self.faults.enabled
               or self.kind in ("serve", "control", "stream"),
               f"faults: only serve/control/stream runs can inject "
               f"faults, not kind {self.kind!r}")
        if self.kind != "control":
            _check(self.faults.blackouts == 0
                   and self.faults.crash_windows == 0,
                   f"faults.blackouts and faults.crash_windows need the "
                   f"control plane's retry path (kind: control), "
                   f"not kind {self.kind!r}")
            _check(self.faults.checkpoint_epochs == 0
                   and not self.faults.shed_slo,
                   f"faults.checkpoint_epochs and faults.shed_slo are "
                   f"control-plane knobs (kind: control), "
                   f"not kind {self.kind!r}")
        return self

    # -- pipeline selection --------------------------------------------------

    def pipeline_names(self) -> tuple:
        """The resolved pipeline selection for this workload."""
        if self.kind in ("serve", "control", "stream"):
            from repro.serve.jobs import DEFAULT_PIPELINE_MIX
            return tuple(DEFAULT_PIPELINE_MIX)
        if self.kind == "sweep" and not self.pipelines:
            from repro.pipelines.registry import PAPER_PIPELINES
            return tuple(PAPER_PIPELINES)
        return self.pipelines

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless plain-data form (JSON- and YAML-serializable)."""
        payload: dict[str, Any] = {
            "kind": self.kind,
            "pipelines": list(self.pipelines),
        }
        for section in _SECTIONS:
            sub = getattr(self, section)
            record = dataclasses.asdict(sub)
            for key, value in record.items():
                if isinstance(value, tuple):
                    record[key] = list(value)
            payload[section] = record
        payload["seed"] = self.seed
        payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a spec file).

        Missing sections and keys take their defaults; unknown keys are
        rejected with the valid key list.  The result is validated.
        """
        if not isinstance(payload, dict):
            raise SpecError(
                f"experiment spec must be a mapping, "
                f"got {type(payload).__name__}")
        _require_keys(cls, payload, "experiment")
        if "kind" not in payload:
            raise SpecError(
                f"experiment spec needs a 'kind'; valid kinds: "
                f"{', '.join(WORKLOAD_KINDS)}")
        kwargs: dict[str, Any] = {"kind": payload["kind"]}
        if "pipelines" in payload:
            value = payload["pipelines"]
            if isinstance(value, str):
                value = (value,)
            _check(isinstance(value, (list, tuple))
                   and all(isinstance(p, str) for p in value),
                   f"'pipelines' must be a list of pipeline names, "
                   f"got {value!r}")
            kwargs["pipelines"] = tuple(value)
        for section, section_cls in _SECTIONS.items():
            if section in payload:
                record = payload[section]
                _require_keys(section_cls, record, section)
                kwargs[section] = section_cls(**record)
        for scalar in ("seed", "name"):
            if scalar in payload:
                kwargs[scalar] = payload[scalar]
        return cls(**kwargs).validate()

    def with_overrides(self, **changes) -> "ExperimentSpec":
        """A copy with top-level fields replaced (convenience)."""
        return replace(self, **changes)

    # -- fingerprinting ------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 digest of the *resolved* experiment.

        Reuses the exec layer's canonical describe_* vocabulary (the
        same functions that key the ProfileCache), so the fingerprint
        changes exactly when the work the spec resolves to changes --
        renaming a storage device or recalibrating a pipeline moves the
        fingerprint even though the spec file text is unchanged.
        """
        from repro.exec.fingerprint import (SCHEMA_VERSION,
                                            describe_config,
                                            describe_environment,
                                            describe_pipeline)
        self.validate()
        payload: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "spec_schema": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "pipelines": [describe_pipeline(resolve_pipeline(name))
                          for name in self.pipeline_names()],
            "config": describe_config(self.run.to_run_config()),
            "environment": describe_environment(
                self.environment.to_environment()),
            "backend": self.environment.backend,
            "seed": self.seed,
        }
        if self.kind == "tune":
            payload["tune"] = dataclasses.asdict(self.tune)
        elif self.kind == "diagnose":
            payload["diagnose"] = dataclasses.asdict(self.diagnose)
        elif self.kind == "serve":
            payload["serve"] = dataclasses.asdict(self.serve)
        elif self.kind == "control":
            payload["control"] = dataclasses.asdict(self.control)
        elif self.kind == "stream":
            payload["stream"] = dataclasses.asdict(self.stream)
        elif self.kind == "fanout":
            payload["fanout"] = {
                **dataclasses.asdict(self.fanout),
                "strategy": resolve_strategy_name(self.pipelines[0],
                                                  self.fanout.strategy),
            }
        # The faults payload joins the digest only when the engine is
        # on, so every pre-existing spec fingerprint is unmoved.
        if self.faults.enabled:
            payload["faults"] = dataclasses.asdict(self.faults)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
