"""The ``presto`` command-line interface.

Subcommands::

    presto run experiment.json        run a declarative experiment spec
    presto plan experiment.json       inspect a spec without running it
    presto pipelines                  list the profiled pipelines
    presto datasets                   Table 2 dataset metadata
    presto profile CV                 profile all strategies of a pipeline
    presto sweep --jobs 4             profile every paper pipeline at once
    presto tune CV --wp 1 --wt 1      auto-tune with objective weights
    presto bottleneck NLP             per-strategy bottleneck report
    presto diagnose CV --verify-top 2 resource attribution + rewrites
    presto fio                        Table 3 storage probe
    presto cost CV                    dollar cost per strategy
    presto amortize CV                offline-time break-even horizons
    presto fanout CV                  per-trainer throughput under fan-out
    presto serve --tenants 8          multi-tenant service co-simulation
    presto ctl --fault-rate 0.2       serving control plane (retry/DLQ,
                                      admission, preemption, autoscaling)
    presto stream --arrival burst     streaming inference with per-request
                                      latency SLOs and backpressure
    presto lint [PATH]                simlint static analysis: the DES
                                      discipline rules (docs/lint.md)
    presto trend A.json B.json        host-time deltas across simbench
                                      snapshots, flagging regressions

Every workload subcommand (profile/sweep/tune/diagnose/fanout/serve/
ctl/stream) is a row of ``_SPEC_COMMANDS``: its flags are spec field
paths whose type, default and help come from the field schema, and one
builder turns the parsed flags into an
:class:`~repro.api.spec.ExperimentSpec` for the
:class:`~repro.api.session.Session` facade, so ``presto profile CV
--threads 16`` and a spec file with the same contents are the *same
experiment* -- same engines, same cache keys, same fingerprint,
byte-identical report.  ``presto run`` executes
a saved spec (JSON or the YAML subset), ``presto plan`` prints its
resolved plan without executing anything.

Unknown pipeline / policy / trace / storage names exit with status 2
and the list of valid registry names (shared resolvers in
:mod:`repro.api.resolve`), never a traceback.

The simulation workloads (serve/ctl/stream) accept telemetry flags
(``--metrics-out``, ``--trace-out``, ``--trace-detail``; ``ctl`` also
``--follow``) that observe a run without changing it: the report on
stdout stays byte-identical, and exports go to files, stdout (``-``)
or stderr (``--follow``).  See ``docs/observability.md``.

All commands run on the simulated backend (deterministic, full scale);
``profile --backend inprocess`` switches to real miniature execution.
``profile``, ``tune``, ``diagnose`` and ``sweep`` accept ``--jobs N``
to fan profiling out over a worker pool and ``--cache DIR`` to memoize
profiles on disk; progress and cache statistics go to stderr, results
to stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Optional, Sequence

from repro.api import ExperimentSpec, FaultsSpec, Session, load_spec
from repro.api.spec import SECTIONS, SINGLE_PIPELINE_KINDS
from repro.core.report import bottleneck_report
from repro.datasets.catalog import table2_frame
from repro.errors import ReproError
from repro.obs.metrics import DEFAULT_METRICS_INTERVAL
from repro.obs.trend import DEFAULT_METRIC, METRIC_DIRECTIONS
from repro.pipelines.registry import PAPER_PIPELINES, get_pipeline
from repro.sim.fio import run_fio
from repro.units import MB

_ENGINE = ("executor.jobs", "executor.cache_dir")

#: The spec-building subcommands: name -> (workload kind, help, flags).
#: Each flag is an ExperimentSpec field path ("section.field", or a
#: top-level field); its type, default, choices, metavar and help come
#: from the field's schema (:func:`repro.api.spec.spec_field`), apart
#: from the departures in ``_FLAGS``, ``_FROM_FLAG`` and ``_DEFAULTS``.
#: Single-pipeline kinds also take the pipeline as a positional.
_SPEC_COMMANDS = {
    "profile": ("profile", "profile a pipeline", (
        "run.threads", "run.epochs", "run.compression", "run.cache_mode",
        "environment.storage", "environment.backend", *_ENGINE)),
    "sweep": ("sweep", "profile every paper pipeline in one parallel run", (
        "pipelines", "run.threads", "run.epochs", "environment.storage",
        "executor.progress", *_ENGINE)),
    "tune": ("tune", "auto-tune a pipeline", (
        "tune.preprocessing_weight", "tune.storage_weight",
        "tune.throughput_weight", "tune.threads", *_ENGINE)),
    "diagnose": (
        "diagnose",
        "attribute epoch time to resources and recommend rewrites", (
            "run.threads", "run.epochs", "environment.storage",
            "diagnose.sample_count", "diagnose.verify_top", *_ENGINE)),
    "fanout": ("fanout", "per-trainer throughput when serving many jobs", (
        "fanout.strategy", "fanout.trainers", "fanout.simulate")),
    "serve": (
        "serve",
        "simulate a multi-tenant preprocessing service on one shared "
        "cluster", (
            "serve.tenants", "serve.policy", "serve.trace", "seed",
            "serve.slots", "run.epochs", "run.threads",
            "environment.storage", "serve.tie_break")),
    "ctl": (
        "control",
        "run the serving control plane: dispatcher, execution ledger, "
        "retry/DLQ, admission, preemption, autoscaling", (
            "control.tenants", "control.policy", "control.trace", "seed",
            "control.slots", "run.epochs", "run.threads",
            "environment.storage", "control.tie_break",
            "control.max_attempts", "control.backoff_base",
            "control.backoff_factor", "control.fault_rate",
            "control.admission_limit", "control.preempt",
            "control.autoscale", "control.max_slots",
            "control.autoscale_interval", "faults")),
    "stream": (
        "stream",
        "simulate streaming inference: per-request latency SLOs, "
        "batching, backpressure", (
            "stream.tenants", "stream.arrival", "stream.rate",
            "stream.requests", "stream.batch", "stream.workers",
            "stream.queue_bound", "stream.slo_stretch", "stream.shed",
            "seed", "environment.storage", "faults")),
}

#: Flags that are not one-to-one with a field: option string and
#: argparse keywords.
_FLAGS = {
    "pipelines": ("--pipelines", dict(
        nargs="+", metavar="PIPELINE", default=list(PAPER_PIPELINES),
        help="subset of pipelines (default: all seven)")),
    "executor.progress": ("--quiet", dict(
        action="store_true", help="suppress per-job progress on stderr")),
    "faults": ("--faults", dict(
        metavar="SPEC", default=None,
        help="seeded chaos timeline, e.g. 'stragglers=1,brownouts=2,"
             "severity=0.6,horizon=20000'; blackouts, crash-windows, "
             "checkpoint-epochs and shed-slo need ctl (see "
             "docs/faults.md)")),
}

#: Subcommand defaults that differ from the field's: a serve/ctl run
#: simulates two epochs, a spec file's ``run.epochs`` defaults to one.
_DEFAULTS = {("serve", "run.epochs"): 2, ("ctl", "run.epochs"): 2}


def _cache_dir(value: Optional[str]) -> Optional[str]:
    if value in ("none", "system", "application"):
        # ``--cache`` used to select the epoch caching behaviour; that
        # knob is now ``--cache-mode``.  Its old values double as
        # plausible directory names, so reject them loudly instead of
        # silently memoizing profiles into a directory called
        # "application".
        raise ReproError(
            f"--cache now names a profile-cache directory; use "
            f"--cache-mode {value} for epoch caching behaviour")
    return value


def _parse_flag(text: str) -> bool:
    """``1/true/yes/on`` or ``0/false/no/off`` in any case; any other
    spelling raises, so a typo never silently reads as off."""
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


#: ``--faults`` value parsers by schema kind.
_FAULT_VALUES = {"int": int, "float": float, "bool": _parse_flag}


def _parse_faults(text: Optional[str]) -> FaultsSpec:
    """Parse a ``--faults 'k=v,k=v'`` chaos spec (None -> disabled).

    The keys are :class:`FaultsSpec`'s fields; dashes are accepted in
    place of underscores.
    """
    if not text:
        return FaultsSpec()
    parsers = {declared.name: _FAULT_VALUES[declared.metadata["kind"]]
               for declared in fields(FaultsSpec)}
    kwargs = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in parsers:
            raise ReproError(
                f"bad --faults entry {item!r}; expected key=value with "
                f"keys: {', '.join(k.replace('_', '-') for k in parsers)}")
        if key in kwargs:
            raise ReproError(
                f"duplicate --faults key {key.replace('_', '-')!r}")
        try:
            kwargs[key] = parsers[key](value.strip())
        except ValueError:
            raise ReproError(
                f"bad --faults value for {key.replace('_', '-')}: "
                f"{value.strip()!r}") from None
    return FaultsSpec(**kwargs)


#: Conversions from a parsed flag value to the field value.
_FROM_FLAG = {
    "executor.progress": lambda quiet: not quiet,
    "executor.cache_dir": _cache_dir,
    "stream.slo_stretch": lambda stretch: stretch or None,  # 0 = null
    "faults": _parse_faults,
}


def _flag(path: str, command: str = "") -> tuple:
    """(option string, argparse keywords) of the flag that sets ``path``."""
    if path in _FLAGS:
        return _FLAGS[path]
    section, _, name = path.rpartition(".")
    owner = SECTIONS[section] if section else ExperimentSpec
    declared = next(item for item in fields(owner) if item.name == name)
    schema = declared.metadata
    default = _DEFAULTS.get((command, path), declared.default)
    kwargs = {"default": default, "help": schema["help"]}
    if schema["kind"] == "bool":
        kwargs["action"] = "store_true"
    else:
        kwargs["type"] = {"int": int, "float": float}.get(schema["kind"])
        kwargs["metavar"] = schema.get("metavar")
        if "choices" in schema:
            kwargs["choices"] = [choice for choice in schema["choices"]
                                 if choice is not None]
    if schema.get("each"):
        kwargs.update(nargs="+", default=list(default))
    return schema.get("flag", f"--{name.replace('_', '-')}"), kwargs


def _dest(path: str) -> str:
    return _flag(path)[0].lstrip("-").replace("-", "_")


def _add_flag(parser: argparse.ArgumentParser, path: str,
              command: str = "") -> None:
    flag, kwargs = _flag(path, command)
    parser.add_argument(flag, **kwargs)


def _add_spec_command(sub, command: str) -> None:
    kind, help_text, paths = _SPEC_COMMANDS[command]
    parser = sub.add_parser(command, help=help_text)
    if kind in SINGLE_PIPELINE_KINDS:
        parser.add_argument("pipeline", metavar="PIPELINE")
    for path in paths:
        _add_flag(parser, path, command)
    if kind in ("serve", "control", "stream"):
        _add_obs_options(parser, follow=kind == "control")


def _spec_from(args) -> ExperimentSpec:
    """The ExperimentSpec a spec-building subcommand's flags describe."""
    kind, _, paths = _SPEC_COMMANDS[args.command]
    top = {"kind": kind}
    if kind in SINGLE_PIPELINE_KINDS:
        top["pipelines"] = (args.pipeline,)
    sections: dict = {}
    for path in paths:
        value = getattr(args, _dest(path))
        if path in _FROM_FLAG:
            value = _FROM_FLAG[path](value)
        section, _, name = path.rpartition(".")
        (sections.setdefault(section, {}) if section else top)[name] = value
    return ExperimentSpec(**top, **{section: SECTIONS[section](**values)
                                    for section, values in sections.items()})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presto",
        description="PRESTO: preprocessing strategy profiling & tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a declarative experiment spec file (JSON/YAML)")
    run.add_argument("spec", metavar="SPEC_FILE",
                     help="path to an experiment spec (.json/.yaml/.yml)")

    plan = sub.add_parser(
        "plan", help="resolve and print a spec's plan without running it")
    plan.add_argument("spec", metavar="SPEC_FILE",
                      help="path to an experiment spec (.json/.yaml/.yml)")

    sub.add_parser("pipelines", help="list profiled pipelines")
    sub.add_parser("datasets", help="print Table 2 dataset metadata")

    for command in ("profile", "sweep", "tune"):
        _add_spec_command(sub, command)

    bottleneck = sub.add_parser("bottleneck",
                                help="per-strategy bottleneck report")
    bottleneck.add_argument("pipeline", metavar="PIPELINE")
    _add_flag(bottleneck, "run.threads")

    _add_spec_command(sub, "diagnose")

    fio = sub.add_parser("fio", help="run the Table 3 storage probe")
    _add_flag(fio, "environment.storage")

    cost = sub.add_parser("cost", help="dollar cost per strategy")
    cost.add_argument("pipeline", metavar="PIPELINE")
    cost.add_argument("--epochs", type=int, default=10)
    cost.add_argument("--months", type=float, default=1.0,
                      help="storage retention in months")

    amortize = sub.add_parser(
        "amortize", help="offline-time break-even across epoch horizons")
    amortize.add_argument("pipeline", metavar="PIPELINE")
    amortize.add_argument("--horizons", type=int, nargs="+",
                          default=[1, 5, 20, 100])

    for command in ("fanout", "serve", "ctl", "stream"):
        _add_spec_command(sub, command)

    # simlint owns its flags: ``main`` forwards everything after
    # ``lint`` to repro.lint.cli unparsed; this entry lists it in -h.
    sub.add_parser(
        "lint",
        help="static analysis for DES discipline (simlint): wall-clock "
             "bans, seeded+namespaced RNG, sorted listings, the "
             "telemetry wall")

    trend = sub.add_parser(
        "trend",
        help="compare simbench snapshots (SIMBENCH.json) and flag "
             "per-workload regressions")
    trend.add_argument("snapshots", nargs="+", metavar="SIMBENCH_JSON",
                       help="two or more snapshots, oldest first")
    trend.add_argument("--metric", choices=sorted(METRIC_DIRECTIONS),
                       default=DEFAULT_METRIC,
                       help="which end-to-end metric to compare")
    trend.add_argument("--threshold", type=float, default=5.0,
                       metavar="PCT",
                       help="regression threshold in percent")
    trend.add_argument("--labels", nargs="+", default=None,
                       metavar="LABEL",
                       help="snapshot labels (default: file names)")
    trend.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the trend report as JSON")
    trend.add_argument("--fail-on-regression", action="store_true",
                       dest="fail_on_regression",
                       help="exit 3 when any regression is flagged")
    return parser


def _add_obs_options(parser: argparse.ArgumentParser,
                     follow: bool = False) -> None:
    """The telemetry knobs shared by serve/ctl/stream."""
    obs = parser.add_argument_group("telemetry")
    obs.add_argument("--metrics-out", metavar="FILE", default=None,
                     dest="metrics_out",
                     help="sample sim-time metrics and write the "
                          "time-series JSON to FILE ('-' = stdout)")
    obs.add_argument("--metrics-interval", type=float,
                     default=DEFAULT_METRICS_INTERVAL,
                     metavar="S", dest="metrics_interval",
                     help="sim-seconds between metrics samples, finite "
                          "and positive (default: %(default)g)")
    obs.add_argument("--trace-out", metavar="FILE", default=None,
                     dest="trace_out",
                     help="record spans and write a Chrome trace-event "
                          "(Perfetto) JSON to FILE ('-' = stdout)")
    obs.add_argument("--trace-detail", action="store_true",
                     dest="trace_detail",
                     help="also record per-batch / per-transfer spans "
                          "(large traces)")
    if follow:
        obs.add_argument("--follow", action="store_true",
                         help="stream ledger transitions live to stderr")


def _telemetry_from(args):
    """Build a :class:`repro.obs.Telemetry` from CLI flags, or ``None``
    when every telemetry flag is off (the zero-cost default)."""
    follow = getattr(args, "follow", False)
    if getattr(args, "metrics_out", None) is None \
            and getattr(args, "trace_out", None) is None and not follow:
        return None
    from repro.obs import Telemetry
    return Telemetry(
        metrics_interval=(args.metrics_interval
                          if args.metrics_out is not None else None),
        trace=args.trace_out is not None,
        trace_detail=args.trace_detail,
        follow=sys.stderr if follow else None)


def _write_export(payload: dict, dest: str, what: str) -> None:
    import json
    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {what} to {dest}", file=sys.stderr)


def _cmd_spec(args) -> int:
    """Run the spec a workload subcommand's flags describe.

    The report goes to stdout, exactly as ``presto run`` prints it;
    telemetry exports (serve/ctl/stream) follow it (``-``) or land in
    files.
    """
    artifact = Session().run(_spec_from(args),
                             telemetry=_telemetry_from(args))
    print(artifact.report)
    if artifact.metrics is not None:
        _write_export(artifact.metrics, args.metrics_out, "metrics")
    if artifact.trace is not None:
        _write_export(artifact.trace, args.trace_out, "trace")
    return 0


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    session = Session()
    artifact = session.run(spec)
    print(artifact.report)
    print(f"run: {artifact.provenance.describe()}, "
          f"{artifact.events_processed:,} kernel events",
          file=sys.stderr)
    return 0


def _cmd_plan(args) -> int:
    spec = load_spec(args.spec)
    print(Session().plan(spec).describe())
    return 0


def _cmd_pipelines() -> int:
    for name in PAPER_PIPELINES:
        pipeline = get_pipeline(name)
        chain = " -> ".join(rep.name for rep in pipeline.representations)
        print(f"{name:8s} {pipeline.sample_count:>9,} samples  {chain}")
    return 0


def _cmd_datasets() -> int:
    print(table2_frame().to_markdown())
    return 0


def _cmd_bottleneck(args) -> int:
    from repro.api import resolve_pipeline
    from repro.backends import RunConfig
    config = RunConfig(threads=args.threads)
    print(bottleneck_report(resolve_pipeline(args.pipeline), config=config))
    return 0


def _cmd_fio(args) -> int:
    from repro.api import resolve_storage
    profile = resolve_storage(args.storage)
    print(f"fio profile of {profile.name}:")
    header = (f"{'Threads':>8s} {'Files/Thread':>13s} {'Bandwidth':>12s} "
              f"{'IOPS':>9s}")
    print(header)
    for result in run_fio(profile):
        workload = result.workload
        print(f"{workload.threads:>8d} {workload.files_per_thread:>13d} "
              f"{result.bandwidth / MB:>9.1f} MB/s {result.iops:>9.0f}")
    return 0


def _cmd_cost(args) -> int:
    from repro.api import resolve_pipeline
    from repro.backends import SimulatedBackend
    from repro.core.economics import PriceSheet, cost_frame
    from repro.exec import SweepEngine
    profiles = SweepEngine(SimulatedBackend()).profile_pipeline(
        resolve_pipeline(args.pipeline))
    frame = cost_frame(profiles, PriceSheet(), epochs=args.epochs,
                       project_months=args.months)
    print(f"dollar cost for {args.epochs} epochs, "
          f"{args.months:g} month(s) of storage (cheapest first):")
    print(frame.to_markdown())
    return 0


def _cmd_amortize(args) -> int:
    from repro.api import resolve_pipeline
    from repro.backends import SimulatedBackend
    from repro.core.amortization import amortization_frame
    from repro.exec import SweepEngine
    profiles = SweepEngine(SimulatedBackend()).profile_pipeline(
        resolve_pipeline(args.pipeline))
    frame = amortization_frame(profiles, horizons=tuple(args.horizons))
    print(frame.to_markdown())
    return 0


def _cmd_trend(args) -> int:
    import json
    from repro.obs.trend import analyze_files
    report = analyze_files(args.snapshots, metric=args.metric,
                           threshold_pct=args.threshold,
                           labels=args.labels)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    if args.fail_on_regression and report.regressions:
        return 3
    return 0


def main_entry() -> None:
    """Console-script entry point (``presto`` after installation)."""
    sys.exit(main())


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.lint import cli as lint_cli
        return lint_cli.run(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"presto: error: {error}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    handlers = {
        "run": lambda: _cmd_run(args),
        "plan": lambda: _cmd_plan(args),
        "pipelines": lambda: _cmd_pipelines(),
        "datasets": lambda: _cmd_datasets(),
        "bottleneck": lambda: _cmd_bottleneck(args),
        "fio": lambda: _cmd_fio(args),
        "cost": lambda: _cmd_cost(args),
        "amortize": lambda: _cmd_amortize(args),
        "trend": lambda: _cmd_trend(args),
    }
    if args.command in _SPEC_COMMANDS:
        return _cmd_spec(args)
    return handlers[args.command]()


if __name__ == "__main__":
    sys.exit(main())
