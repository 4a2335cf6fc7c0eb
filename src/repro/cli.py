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

Every workload subcommand (profile/sweep/tune/diagnose/serve/fanout) is
a thin shim: it builds an :class:`~repro.api.spec.ExperimentSpec` from
its flags and hands it to the :class:`~repro.api.session.Session`
facade, so ``presto profile CV --threads 16`` and a spec file with the
same contents are the *same experiment* -- same engines, same cache
keys, same fingerprint, byte-identical report.  ``presto run`` executes
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
from typing import Optional, Sequence

from repro.api import (ControlSpec, DiagnoseSpec, EnvironmentSpec,
                       ExecSpec, ExperimentSpec, FanoutSpec, FaultsSpec,
                       RunSpec, ServeSpec, Session, StreamSpec, TuneSpec,
                       load_spec)
from repro.core.report import bottleneck_report
from repro.datasets.catalog import table2_frame
from repro.errors import ReproError
from repro.obs.metrics import DEFAULT_METRICS_INTERVAL
from repro.obs.trend import DEFAULT_METRIC, METRIC_DIRECTIONS
from repro.pipelines.registry import PAPER_PIPELINES, get_pipeline
from repro.sim.fio import run_fio
from repro.units import MB


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

    profile = sub.add_parser("profile", help="profile a pipeline")
    profile.add_argument("pipeline", metavar="PIPELINE")
    profile.add_argument("--threads", type=int, default=8)
    profile.add_argument("--epochs", type=int, default=1)
    profile.add_argument("--compression", choices=["GZIP", "ZLIB"],
                         default=None)
    profile.add_argument("--cache-mode",
                         choices=["none", "system", "application"],
                         default="none",
                         help="epoch-to-epoch data caching behaviour")
    profile.add_argument("--storage", metavar="DEVICE", default="ceph-hdd")
    profile.add_argument("--backend", choices=["simulated", "inprocess"],
                         default="simulated")
    _add_engine_options(profile)

    sweep = sub.add_parser(
        "sweep", help="profile every paper pipeline in one parallel run")
    sweep.add_argument("--pipelines", nargs="+", metavar="PIPELINE",
                       default=list(PAPER_PIPELINES),
                       help="subset of pipelines (default: all seven)")
    sweep.add_argument("--threads", type=int, default=8)
    sweep.add_argument("--epochs", type=int, default=1)
    sweep.add_argument("--storage", metavar="DEVICE", default="ceph-hdd")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress on stderr")
    _add_engine_options(sweep)

    tune = sub.add_parser("tune", help="auto-tune a pipeline")
    tune.add_argument("pipeline", metavar="PIPELINE")
    tune.add_argument("--wp", type=float, default=0.0,
                      help="preprocessing-time weight")
    tune.add_argument("--ws", type=float, default=0.0,
                      help="storage weight")
    tune.add_argument("--wt", type=float, default=1.0,
                      help="throughput weight")
    tune.add_argument("--threads", type=int, nargs="+", default=[8])
    _add_engine_options(tune)

    bottleneck = sub.add_parser("bottleneck",
                                help="per-strategy bottleneck report")
    bottleneck.add_argument("pipeline", metavar="PIPELINE")
    bottleneck.add_argument("--threads", type=int, default=8)

    diagnose = sub.add_parser(
        "diagnose",
        help="attribute epoch time to resources and recommend rewrites")
    diagnose.add_argument("pipeline", metavar="PIPELINE")
    diagnose.add_argument("--threads", type=int, default=8)
    diagnose.add_argument("--epochs", type=int, default=1)
    diagnose.add_argument("--storage", metavar="DEVICE", default="ceph-hdd")
    diagnose.add_argument("--sample-count", type=int, default=None,
                          metavar="N",
                          help="diagnose an N-sample subset (cheap look)")
    diagnose.add_argument("--verify-top", type=int, default=0, metavar="N",
                          help="re-run the top N verifiable rewrites and "
                               "report predicted-vs-measured error")
    _add_engine_options(diagnose)

    fio = sub.add_parser("fio", help="run the Table 3 storage probe")
    fio.add_argument("--storage", metavar="DEVICE", default="ceph-hdd")

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

    fanout = sub.add_parser(
        "fanout", help="per-trainer throughput when serving many jobs")
    fanout.add_argument("pipeline", metavar="PIPELINE")
    fanout.add_argument("--strategy", default=None,
                        help="split name (default: last strategy)")
    fanout.add_argument("--trainers", type=int, nargs="+",
                        default=[1, 2, 4, 8, 16])
    fanout.add_argument("--simulate", action="store_true",
                        help="co-simulate the trainers through the serve "
                             "layer instead of the closed-form link bound")

    serve = sub.add_parser(
        "serve",
        help="simulate a multi-tenant preprocessing service on one "
             "shared cluster")
    serve.add_argument("--tenants", type=int, default=8, metavar="J")
    serve.add_argument("--policy", metavar="POLICY", default="fifo",
                       help="scheduler policy ('all' compares every one)")
    serve.add_argument("--trace", metavar="KIND", default="steady",
                       help="arrival-trace shape")
    serve.add_argument("--seed", type=int, default=0,
                       help="trace-generator seed (runs are deterministic)")
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrent execution slots")
    serve.add_argument("--epochs", type=int, default=2)
    serve.add_argument("--threads", type=int, default=8,
                       help="reader threads per tenant job")
    serve.add_argument("--storage", metavar="DEVICE", default="ceph-hdd")
    serve.add_argument("--tie-break", choices=["arrival", "tenant"],
                       default="arrival", dest="tie_break",
                       help="ordering of simultaneous storage-link "
                            "completions (tenant = deterministic "
                            "(timestamp, tenant id) order)")
    _add_obs_options(serve)

    ctl = sub.add_parser(
        "ctl",
        help="run the serving control plane: dispatcher, execution "
             "ledger, retry/DLQ, admission, preemption, autoscaling")
    ctl.add_argument("--tenants", type=int, default=8, metavar="J")
    ctl.add_argument("--policy", metavar="POLICY", default="fifo",
                     help="scheduler policy (fifo/fair-share/cache-aware)")
    ctl.add_argument("--trace", metavar="KIND", default="steady",
                     help="arrival-trace shape")
    ctl.add_argument("--seed", type=int, default=0,
                     help="trace-generator seed (runs are deterministic)")
    ctl.add_argument("--slots", type=int, default=2,
                     help="initial concurrent execution slots")
    ctl.add_argument("--epochs", type=int, default=2)
    ctl.add_argument("--threads", type=int, default=8,
                     help="reader threads per tenant job")
    ctl.add_argument("--storage", metavar="DEVICE", default="ceph-hdd")
    ctl.add_argument("--tie-break", choices=["arrival", "tenant"],
                     default="arrival", dest="tie_break")
    ctl.add_argument("--max-attempts", type=int, default=3, metavar="N",
                     dest="max_attempts",
                     help="executions before a crashing job dead-letters")
    ctl.add_argument("--backoff-base", type=float, default=60.0,
                     metavar="S", dest="backoff_base",
                     help="retry backoff base in simulated seconds")
    ctl.add_argument("--backoff-factor", type=float, default=2.0,
                     metavar="F", dest="backoff_factor",
                     help="exponential retry backoff factor")
    ctl.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                     dest="fault_rate",
                     help="seeded fraction of jobs that crash mid-run")
    ctl.add_argument("--admission-limit", type=int, default=None,
                     metavar="N", dest="admission_limit",
                     help="max in-flight jobs per tenant (default: "
                          "unlimited)")
    ctl.add_argument("--preempt", action="store_true",
                     help="let the policy preempt running jobs at epoch "
                          "boundaries")
    ctl.add_argument("--autoscale", action="store_true",
                     help="autoscale slots from serve.doctor findings")
    ctl.add_argument("--max-slots", type=int, default=0, metavar="N",
                     dest="max_slots",
                     help="autoscale ceiling (default: 2x --slots)")
    ctl.add_argument("--autoscale-interval", type=float, default=600.0,
                     metavar="S", dest="autoscale_interval",
                     help="autoscaler tick in simulated seconds")
    ctl.add_argument("--faults", metavar="SPEC", default=None,
                     help="seeded chaos timeline, e.g. "
                          "'stragglers=1,brownouts=2,blackouts=1,"
                          "crash-windows=1,severity=0.6,horizon=20000,"
                          "checkpoint-epochs=2,shed-slo=1' "
                          "(see docs/faults.md)")
    _add_obs_options(ctl, follow=True)

    stream = sub.add_parser(
        "stream",
        help="simulate streaming inference: per-request latency SLOs, "
             "batching, backpressure")
    stream.add_argument("--tenants", type=int, default=4, metavar="J")
    stream.add_argument("--arrival", metavar="KIND", default="poisson",
                        help="arrival-process shape "
                             "(poisson/burst/diurnal)")
    stream.add_argument("--rate", type=float, default=1.0, metavar="R",
                        help="mean request arrival rate per tenant "
                             "(requests/s)")
    stream.add_argument("--requests", type=int, default=32, metavar="N",
                        help="requests per tenant stream")
    stream.add_argument("--batch", type=int, default=32, metavar="K",
                        help="samples per request batch (latency knob)")
    stream.add_argument("--workers", type=int, default=2, metavar="W",
                        help="concurrent request workers per tenant")
    stream.add_argument("--queue-bound", type=int, default=0, metavar="Q",
                        dest="queue_bound",
                        help="backpressure queue depth per tenant "
                             "(0 = unbounded)")
    stream.add_argument("--slo-stretch", type=float, default=3.0,
                        metavar="F", dest="slo_stretch",
                        help="latency budget as a multiple of the "
                             "analytic batch service time (0 disables "
                             "deadlines)")
    stream.add_argument("--shed", action="store_true",
                        help="shed requests arriving at a full queue "
                             "instead of blocking the arrival process")
    stream.add_argument("--seed", type=int, default=0,
                        help="arrival-schedule seed (runs are "
                             "deterministic)")
    stream.add_argument("--storage", metavar="DEVICE", default="ceph-hdd")
    stream.add_argument("--faults", metavar="SPEC", default=None,
                        help="seeded chaos timeline, e.g. "
                             "'stragglers=1,slowdowns=1,severity=0.5' "
                             "(no blackouts/crash-windows: those need "
                             "the control plane; see docs/faults.md)")
    _add_obs_options(stream)

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


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """The sweep-engine knobs shared by profile/tune/diagnose/sweep."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel profiling workers (default: 1)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="persist memoized profiles in DIR")


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
    if args.metrics_out is None and args.trace_out is None and not follow:
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


def _run_observed(spec: ExperimentSpec, args) -> int:
    """Run a simulation workload with the telemetry flags applied.

    The report stays on stdout exactly as without telemetry; metrics
    and trace exports follow it (``-``) or land in files.
    """
    telemetry = _telemetry_from(args)
    if telemetry is None:
        return _print_artifact(spec)
    artifact = Session().run(spec, telemetry=telemetry)
    print(artifact.report)
    if artifact.metrics is not None:
        _write_export(artifact.metrics, args.metrics_out, "metrics")
    if artifact.trace is not None:
        _write_export(artifact.trace, args.trace_out, "trace")
    return 0


def _exec_spec(args, progress: bool = False) -> ExecSpec:
    if args.cache in ("none", "system", "application"):
        # ``--cache`` used to select the epoch caching behaviour; that
        # knob is now ``--cache-mode``.  Its old values double as
        # plausible directory names, so reject them loudly instead of
        # silently memoizing profiles into a directory called
        # "application".
        raise ReproError(
            f"--cache now names a profile-cache directory; use "
            f"--cache-mode {args.cache} for epoch caching behaviour")
    return ExecSpec(jobs=args.jobs, cache_dir=args.cache,
                    progress=progress)


def _print_artifact(spec: ExperimentSpec) -> int:
    artifact = Session().run(spec)
    print(artifact.report)
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


def _cmd_profile(args) -> int:
    return _print_artifact(ExperimentSpec(
        kind="profile",
        pipelines=(args.pipeline,),
        run=RunSpec(threads=args.threads, epochs=args.epochs,
                    compression=args.compression,
                    cache_mode=args.cache_mode),
        environment=EnvironmentSpec(storage=args.storage,
                                    backend=args.backend),
        executor=_exec_spec(args)))


def _cmd_sweep(args) -> int:
    return _print_artifact(ExperimentSpec(
        kind="sweep",
        pipelines=tuple(args.pipelines),
        run=RunSpec(threads=args.threads, epochs=args.epochs),
        environment=EnvironmentSpec(storage=args.storage),
        executor=_exec_spec(args, progress=not args.quiet)))


def _cmd_tune(args) -> int:
    return _print_artifact(ExperimentSpec(
        kind="tune",
        pipelines=(args.pipeline,),
        tune=TuneSpec(preprocessing_weight=args.wp,
                      storage_weight=args.ws,
                      throughput_weight=args.wt,
                      threads=tuple(args.threads)),
        executor=_exec_spec(args)))


def _cmd_bottleneck(args) -> int:
    from repro.api import resolve_pipeline
    from repro.backends import RunConfig
    config = RunConfig(threads=args.threads)
    print(bottleneck_report(resolve_pipeline(args.pipeline), config=config))
    return 0


def _cmd_diagnose(args) -> int:
    return _print_artifact(ExperimentSpec(
        kind="diagnose",
        pipelines=(args.pipeline,),
        run=RunSpec(threads=args.threads, epochs=args.epochs),
        environment=EnvironmentSpec(storage=args.storage),
        diagnose=DiagnoseSpec(verify_top=args.verify_top,
                              sample_count=args.sample_count),
        executor=_exec_spec(args)))


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


def _cmd_fanout(args) -> int:
    return _print_artifact(ExperimentSpec(
        kind="fanout",
        pipelines=(args.pipeline,),
        fanout=FanoutSpec(strategy=args.strategy,
                          trainers=tuple(args.trainers),
                          simulate=args.simulate)))


def _parse_flag(text: str) -> bool:
    """``1/true/yes/on`` or ``0/false/no/off`` in any case; any other
    spelling raises, so a typo never silently reads as off."""
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


#: ``--faults`` keys -> (FaultsSpec field, coercion).  Dashes are
#: accepted in place of underscores on the command line.
_FAULT_KEYS = {
    "stragglers": int,
    "slowdowns": int,
    "brownouts": int,
    "blackouts": int,
    "crash_windows": int,
    "severity": float,
    "horizon": float,
    "checkpoint_epochs": int,
    "shed_slo": _parse_flag,
}


def _parse_faults(text: Optional[str]) -> FaultsSpec:
    """Parse a ``--faults 'k=v,k=v'`` chaos spec (None -> disabled)."""
    if not text:
        return FaultsSpec()
    kwargs = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in _FAULT_KEYS:
            raise ReproError(
                f"bad --faults entry {item!r}; expected key=value with "
                f"keys: {', '.join(k.replace('_', '-') for k in _FAULT_KEYS)}")
        if key in kwargs:
            raise ReproError(
                f"duplicate --faults key {key.replace('_', '-')!r}")
        try:
            kwargs[key] = _FAULT_KEYS[key](value.strip())
        except ValueError:
            raise ReproError(
                f"bad --faults value for {key.replace('_', '-')}: "
                f"{value.strip()!r}") from None
    return FaultsSpec(**kwargs)


def _cmd_serve(args) -> int:
    return _run_observed(ExperimentSpec(
        kind="serve",
        run=RunSpec(threads=args.threads, epochs=args.epochs),
        environment=EnvironmentSpec(storage=args.storage),
        serve=ServeSpec(tenants=args.tenants, trace=args.trace,
                        policy=args.policy, slots=args.slots,
                        tie_break=args.tie_break),
        seed=args.seed), args)


def _cmd_ctl(args) -> int:
    return _run_observed(ExperimentSpec(
        kind="control",
        run=RunSpec(threads=args.threads, epochs=args.epochs),
        environment=EnvironmentSpec(storage=args.storage),
        control=ControlSpec(tenants=args.tenants, trace=args.trace,
                            policy=args.policy, slots=args.slots,
                            tie_break=args.tie_break,
                            max_attempts=args.max_attempts,
                            backoff_base=args.backoff_base,
                            backoff_factor=args.backoff_factor,
                            fault_rate=args.fault_rate,
                            admission_limit=args.admission_limit,
                            preempt=args.preempt,
                            autoscale=args.autoscale,
                            max_slots=args.max_slots,
                            autoscale_interval=args.autoscale_interval),
        faults=_parse_faults(args.faults),
        seed=args.seed), args)


def _cmd_stream(args) -> int:
    return _run_observed(ExperimentSpec(
        kind="stream",
        environment=EnvironmentSpec(storage=args.storage),
        stream=StreamSpec(tenants=args.tenants, arrival=args.arrival,
                          rate=args.rate, requests=args.requests,
                          batch=args.batch, workers=args.workers,
                          queue_bound=args.queue_bound,
                          slo_stretch=args.slo_stretch or None,
                          shed=args.shed),
        faults=_parse_faults(args.faults),
        seed=args.seed), args)


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
        "profile": lambda: _cmd_profile(args),
        "sweep": lambda: _cmd_sweep(args),
        "tune": lambda: _cmd_tune(args),
        "bottleneck": lambda: _cmd_bottleneck(args),
        "diagnose": lambda: _cmd_diagnose(args),
        "fio": lambda: _cmd_fio(args),
        "cost": lambda: _cmd_cost(args),
        "amortize": lambda: _cmd_amortize(args),
        "fanout": lambda: _cmd_fanout(args),
        "serve": lambda: _cmd_serve(args),
        "ctl": lambda: _cmd_ctl(args),
        "stream": lambda: _cmd_stream(args),
        "trend": lambda: _cmd_trend(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":
    sys.exit(main())
