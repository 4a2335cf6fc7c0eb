"""The declarative experiment specification.

An :class:`ExperimentSpec` is the single serializable description of
"run this study": one workload kind (``profile | sweep | tune |
diagnose | serve | control | fanout | stream``), the pipelines it
touches, the run knobs
(:class:`RunSpec`), the hardware (:class:`EnvironmentSpec`), executor
and profile-cache settings (:class:`ExecSpec`) and the workload-specific
sub-specs.  Everything the four historical entry points
(SweepEngine, AutoTuner, BottleneckDoctor,
PreprocessingService) take as constructor arguments and ad-hoc CLI
flags is expressible -- and therefore saveable, diffable and
replayable -- as one spec.

Each field is declared once, with :func:`spec_field`: its kind,
bounds and CLI help live in the field's metadata, and validation, the
``presto`` flags and the spec tests all read it from there.

Round-tripping is lossless: ``ExperimentSpec.from_dict(spec.to_dict())
== spec`` for every workload kind (pinned by a hypothesis property
test).  ``from_dict`` validates key names per section and
:meth:`ExperimentSpec.validate` checks every field against its schema,
resolving registry names through :mod:`repro.api.resolve`, so errors
are actionable ("unknown pipeline 'CV3'; did you mean 'CV'? valid
pipelines: ...") rather than tracebacks.

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
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from repro.api.resolve import (BACKEND_NAMES, resolve_arrival,
                               resolve_backend_name, resolve_pipeline,
                               resolve_pipeline_name, resolve_policy,
                               resolve_storage, resolve_strategy_name,
                               resolve_trace)
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


def spec_field(default, kind: str, help: Optional[str] = None, **schema):
    """A spec field whose constraints live in its ``metadata``.

    ``kind`` is ``int``, ``float``, ``bool``, ``str``, ``choice`` (one
    of ``choices``) or ``name`` (checked by the registry resolver
    ``resolve``).  Optional keys: the bounds ``min`` (>=), ``gt`` (>)
    and ``max`` (<=); ``null`` to allow ``None``; ``each`` for a
    non-empty tuple of such values.  ``help``, ``metavar`` and ``flag``
    (default ``--field-name``) describe the field's CLI flag.
    """
    return field(default=default,
                 metadata={"kind": kind, "help": help, **schema})


def _require_keys(cls, payload: dict, section: str) -> None:
    """Reject unknown keys with the list of valid ones."""
    if not isinstance(payload, dict):
        raise SpecError(
            f"spec section {section!r} must be a mapping, "
            f"got {type(payload).__name__}")
    valid = {declared.name for declared in fields(cls)}
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


def _valid(value, schema) -> bool:
    """One (scalar) value satisfies its field's schema."""
    kind = schema["kind"]
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "choice":
        return value in schema["choices"]
    if kind not in ("int", "float"):
        return isinstance(value, str)
    return (_is_number(value, integer=kind == "int")
            and ("min" not in schema or value >= schema["min"])
            and ("gt" not in schema or value > schema["gt"])
            and ("max" not in schema or value <= schema["max"]))


def _requirement(schema) -> str:
    """What a field's schema asks for, as "... must be <requirement>"."""
    kind = schema["kind"]
    if kind == "int":
        text = {0: "an integer >= 0",
                1: "a positive integer"}.get(schema.get("min"), "an integer")
    elif kind == "float":
        bounds = [f"{op} {schema[key]:g}" for key, op
                  in (("gt", ">"), ("min", ">="), ("max", "<="))
                  if key in schema]
        text = " and ".join(["a finite number", *bounds])
    elif kind == "bool":
        text = "a boolean"
    elif kind == "choice":
        text = f"one of {schema['choices']}"
    else:
        text = "a string"
    if schema.get("each"):
        text = f"a non-empty list, each item {text}"
    return text + (" or null" if schema.get("null") else "")


def _check_fields(section: str, spec) -> None:
    """Check every schema-declared field of ``spec`` against its schema.

    Errors name the field as ``section.field`` and show the bad value;
    registry names also get the resolver's list of valid names.
    """
    prefix = f"{section}." if section else ""
    for declared in fields(spec):
        schema = declared.metadata
        value = getattr(spec, declared.name)
        if not schema or (value is None and schema.get("null")):
            continue
        if schema["kind"] == "name":
            try:
                schema["resolve"](value)
            except SpecError as error:
                raise SpecError(f"{prefix}{declared.name}: {error}") \
                    from None
        items = value if schema.get("each") else (value,)
        _check(bool(items) and all(_valid(item, schema) for item in items),
               f"{prefix}{declared.name} must be "
               f"{_requirement(schema)}, got {value!r}")


class _Section:
    """A spec section: :meth:`validate` walks its field schema."""

    def validate(self) -> None:
        _check_fields(_SECTION_NAMES[type(self)], self)


@dataclass(frozen=True)
class RunSpec(_Section):
    """Per-run strategy knobs; maps 1:1 onto
    :class:`~repro.backends.base.RunConfig`."""

    threads: int = spec_field(8, "int", "reader threads per job", min=1)
    epochs: int = spec_field(1, "int", "training epochs to simulate",
                             min=1)
    compression: Optional[str] = spec_field(
        None, "choice", "compress the materialised representation",
        choices=_COMPRESSIONS)
    cache_mode: str = spec_field(
        "none", "choice", "epoch-to-epoch data caching behaviour",
        choices=_CACHE_MODES)
    shuffle_buffer: int = spec_field(0, "int", min=0)

    def to_run_config(self):
        """The equivalent :class:`~repro.backends.base.RunConfig`."""
        from repro.backends.base import RunConfig
        return RunConfig(threads=self.threads, epochs=self.epochs,
                         compression=self.compression,
                         cache_mode=self.cache_mode,
                         shuffle_buffer=self.shuffle_buffer)


@dataclass(frozen=True)
class EnvironmentSpec(_Section):
    """Hardware selection: storage device plus execution backend."""

    storage: str = spec_field("ceph-hdd", "name", "storage device profile",
                              resolve=resolve_storage, metavar="DEVICE")
    backend: str = spec_field(
        "simulated", "name",
        "full-scale simulation or real miniature execution",
        resolve=resolve_backend_name, choices=BACKEND_NAMES)

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
class ExecSpec(_Section):
    """Sweep-engine settings: worker fan-out, memoization, progress."""

    jobs: int = spec_field(1, "int",
                           "parallel profiling workers (default: 1)",
                           min=1, metavar="N")
    cache_dir: Optional[str] = spec_field(
        None, "str", "persist memoized profiles in DIR", null=True,
        flag="--cache", metavar="DIR")
    progress: bool = spec_field(False, "bool")


@dataclass(frozen=True)
class TuneSpec(_Section):
    """Auto-tuning grid and objective (``kind: tune``)."""

    preprocessing_weight: float = spec_field(
        0.0, "float", "preprocessing-time weight", min=0, flag="--wp")
    storage_weight: float = spec_field(0.0, "float", "storage weight",
                                       min=0, flag="--ws")
    throughput_weight: float = spec_field(1.0, "float", "throughput weight",
                                          min=0, flag="--wt")
    threads: tuple = spec_field((8,), "int", "thread counts to search",
                                min=1, each=True)
    compressions: tuple = spec_field((None, "GZIP", "ZLIB"), "choice",
                                     choices=_COMPRESSIONS, each=True)
    cache_modes: tuple = spec_field(("none",), "choice",
                                    choices=_CACHE_MODES, each=True)
    screen_keep: float = spec_field(0.5, "float", gt=0, max=1)

    def __post_init__(self):
        object.__setattr__(self, "threads", _as_tuple(self.threads))
        object.__setattr__(self, "compressions",
                           _as_tuple(self.compressions))
        object.__setattr__(self, "cache_modes",
                           _as_tuple(self.cache_modes))

    def validate(self) -> None:
        super().validate()
        _check(any((self.preprocessing_weight, self.storage_weight,
                    self.throughput_weight)),
               "at least one tune weight must be positive")

    def to_weights(self):
        from repro.core.analysis import ObjectiveWeights
        return ObjectiveWeights(preprocessing=self.preprocessing_weight,
                                storage=self.storage_weight,
                                throughput=self.throughput_weight)


@dataclass(frozen=True)
class DiagnoseSpec(_Section):
    """Bottleneck-doctor options (``kind: diagnose``)."""

    verify_top: int = spec_field(
        0, "int", "re-run the top N verifiable rewrites and report "
        "predicted-vs-measured error", min=0, metavar="N")
    sample_count: Optional[int] = spec_field(
        None, "int", "diagnose an N-sample subset (cheap look)", min=1,
        null=True, metavar="N")


@dataclass(frozen=True)
class ServeSpec(_Section):
    """Multi-tenant service scenario (``kind: serve``)."""

    tenants: int = spec_field(8, "int", "number of tenant jobs", min=1,
                              metavar="J")
    trace: str = spec_field("steady", "name", "arrival-trace shape",
                            resolve=resolve_trace, metavar="KIND")
    policy: str = spec_field(
        "fifo", "name", "scheduler policy ('all' compares every one; "
        "serve only)", resolve=resolve_policy, metavar="POLICY")
    slots: int = spec_field(2, "int", "concurrent execution slots "
                            "(initial slots under autoscaling)", min=1)
    tie_break: str = spec_field(
        "arrival", "choice", "ordering of simultaneous storage-link "
        "completions (tenant = deterministic (timestamp, tenant id) "
        "order)", choices=_TIE_BREAKS)


@dataclass(frozen=True)
class ControlSpec(ServeSpec):
    """Control-plane scenario over the service (``kind: control``).

    Inherits :class:`ServeSpec`'s fields (the underlying service run);
    the fields declared here configure the control features.  With the
    control defaults (no faults, no admission limit, no preemption, no
    autoscaling) a control run reproduces the equivalent serve run
    byte-for-byte -- the differential guarantee ``tests/ctl`` pins.
    """

    max_attempts: int = spec_field(
        3, "int", "executions before a crashing job dead-letters", min=1,
        metavar="N")
    backoff_base: float = spec_field(
        60.0, "float", "retry backoff base in simulated seconds", min=0,
        metavar="S")
    backoff_factor: float = spec_field(
        2.0, "float", "exponential retry backoff factor", min=1,
        metavar="F")
    fault_rate: float = spec_field(
        0.0, "float", "seeded fraction of jobs that crash mid-run", min=0,
        max=1, metavar="R")
    admission_limit: Optional[int] = spec_field(
        None, "int", "max in-flight jobs per tenant (default: unlimited)",
        min=1, null=True, metavar="N")
    preempt: bool = spec_field(
        False, "bool", "let the policy preempt running jobs at epoch "
        "boundaries")
    autoscale: bool = spec_field(
        False, "bool", "autoscale slots from serve.doctor findings")
    max_slots: int = spec_field(
        0, "int", "autoscale ceiling (default: 2x --slots)", min=0,
        metavar="N")
    autoscale_interval: float = spec_field(
        600.0, "float", "autoscaler tick in simulated seconds", gt=0,
        metavar="S")

    def validate(self) -> None:
        super().validate()
        _check(self.policy != "all",
               "control.policy 'all' is serve-only: a control run uses "
               "one policy")
        _check(self.max_slots == 0 or self.max_slots >= self.slots,
               f"control.max_slots must be 0 (auto) or >= slots, "
               f"got {self.max_slots!r}")

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
class StreamSpec(_Section):
    """Streaming inference scenario (``kind: stream``).

    Describes a seeded tenant population of request streams: the
    arrival process shape and rate, requests per tenant, the
    batch-size-vs-latency knob, prefetch width (workers per tenant),
    admission control (queue bound, shed-vs-block on overflow) and the
    per-request latency SLO as a stretch over the uncontended analytic
    batch time (``None``/0 disables deadlines).
    """

    tenants: int = spec_field(4, "int", "number of tenant request streams",
                              min=1, metavar="J")
    arrival: str = spec_field(
        "poisson", "name", "arrival-process shape (poisson/burst/diurnal)",
        resolve=resolve_arrival, metavar="KIND")
    rate: float = spec_field(
        1.0, "float", "mean request arrival rate per tenant (requests/s)",
        gt=0, metavar="R")
    requests: int = spec_field(32, "int", "requests per tenant stream",
                               min=1, metavar="N")
    batch: int = spec_field(
        32, "int", "samples per request batch (latency knob)", min=1,
        metavar="K")
    workers: int = spec_field(
        2, "int", "concurrent request workers per tenant", min=1,
        metavar="W")
    queue_bound: int = spec_field(
        0, "int", "backpressure queue depth per tenant (0 = unbounded)",
        min=0, metavar="Q")
    slo_stretch: Optional[float] = spec_field(
        3.0, "float", "latency budget as a multiple of the analytic batch "
        "service time (0 disables deadlines)", gt=0, null=True,
        metavar="F")
    shed: bool = spec_field(
        False, "bool", "shed requests arriving at a full queue instead of "
        "blocking the arrival process")


@dataclass(frozen=True)
class FaultsSpec(_Section):
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

    stragglers: int = spec_field(0, "int", min=0)
    slowdowns: int = spec_field(0, "int", min=0)
    brownouts: int = spec_field(0, "int", min=0)
    blackouts: int = spec_field(0, "int", min=0)
    crash_windows: int = spec_field(0, "int", min=0)
    severity: float = spec_field(0.5, "float", gt=0, max=1)
    #: Window-placement horizon in simulated seconds; windows landing
    #: past the run's natural end simply never bite.
    horizon: float = spec_field(21600.0, "float", gt=0)
    checkpoint_epochs: int = spec_field(0, "int", min=0)
    shed_slo: bool = spec_field(False, "bool")

    @property
    def enabled(self) -> bool:
        return bool(self.stragglers or self.slowdowns or self.brownouts
                    or self.blackouts or self.crash_windows)

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
class FanoutSpec(_Section):
    """Trainer fan-out study (``kind: fanout``)."""

    strategy: Optional[str] = spec_field(
        None, "str", "split name (default: last strategy)", null=True)
    trainers: tuple = spec_field((1, 2, 4, 8, 16), "int",
                                 "concurrent trainer counts", min=1,
                                 each=True)
    simulate: bool = spec_field(
        False, "bool", "co-simulate the trainers through the serve layer "
        "instead of the closed-form link bound")

    def __post_init__(self):
        object.__setattr__(self, "trainers", _as_tuple(self.trainers))


#: Sub-spec sections of an ExperimentSpec, in serialization order.  A
#: workload kind with its own options has the section of the same name.
SECTIONS = {
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
_SECTION_NAMES = {cls: name for name, cls in SECTIONS.items()}


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
    seed: int = spec_field(0, "int", "trace / arrival-schedule seed (runs "
                           "are deterministic)")
    name: str = spec_field("", "str")

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
        _check_fields("", self)
        for section in ("run", "environment", "executor", self.kind,
                        "faults"):
            if section in SECTIONS:
                getattr(self, section).validate()
        if self.kind == "fanout":
            resolve_strategy_name(self.pipelines[0], self.fanout.strategy)
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
        for section in SECTIONS:
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
        for section, section_cls in SECTIONS.items():
            if section in payload:
                record = payload[section]
                _require_keys(section_cls, record, section)
                kwargs[section] = section_cls(**record)
        for scalar in ("seed", "name"):
            if scalar in payload:
                kwargs[scalar] = payload[scalar]
        return cls(**kwargs).validate()

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
        if self.kind in SECTIONS:
            payload[self.kind] = dataclasses.asdict(getattr(self, self.kind))
        if self.kind == "fanout":
            payload["fanout"]["strategy"] = resolve_strategy_name(
                self.pipelines[0], self.fanout.strategy)
        # The faults payload joins the digest only when the engine is
        # on, so every pre-existing spec fingerprint is unmoved.
        if self.faults.enabled:
            payload["faults"] = dataclasses.asdict(self.faults)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
