"""One measured simulation, run in a fresh interpreter by ``run.py``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python simbench/worker.py --workload serve64_hot_raw --seed 0 \
        --mode sim --launched "$(python -c 'import time; print(time.monotonic())')"

``--launched`` is the ``time.monotonic()`` reading the parent took just
before starting this process (CLOCK_MONOTONIC is system-wide on Linux),
so ``setup_s`` covers interpreter start, imports, input generation and
service construction.  Modes:

* ``setup`` -- stop right before the simulation call;
* ``sim``   -- run the simulation and render its report and doctor text
               with tracing off;
* ``trace`` -- the same under cProfile, folded into layers.

After set-up, and again after the simulation, the worker times a fixed
stdlib heap loop (``ref_ms``): outside both timed spans, on the CPU the
simulation runs on, so ``run.py`` can tell a slow host from slow code.

The last stdout line is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import importlib
import json
import pstats
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import scenarios  # noqa: E402

HOT_RAW = scenarios.SERVE_SCENARIOS["serve64_hot_raw"]
CTL = scenarios.CTL_SCENARIOS["ctl_ops_chaos32"]
#: ``stream64`` re-shaped into steady poisson load below the saturation
#: knee (2% of deadlines missed at seed 0; rate 0.1 misses 97%).
STREAM = dict(scenarios.STREAM_SCENARIOS["stream64"], arrival="poisson",
              rate=0.04, requests=1500)

#: Host reference loop: heap push/pop of this many floats per chunk,
#: this many chunks per sample.
REF_ITEMS = 20_000
REF_CHUNKS = 5

#: Layers named after the repo's modules, matched by module-name prefix
#: in order; anything else in ``repro`` or outside it is ``other``.
LAYER_PREFIXES = (
    ("core.report", "report"),
    ("serve.doctor", "report"),
    ("stream.doctor", "report"),
    ("stream.report", "report"),
    ("ctl.report", "report"),
    ("sim.events", "sim.events"),
    ("sim.bandwidth", "sim.bandwidth"),
    ("sim.resources", "sim.resources"),
    ("sim.pagecache", "sim.pagecache"),
    ("backends.simulated", "backends.simulated"),
    ("serve.", "serve"),
    ("ctl.", "ctl"),
    ("faults.", "faults"),
    ("stream.", "stream"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) \
    + ("other",)

#: Public entry points whose exact call counts are reported: metric
#: name -> (module, qualified name).  Timeouts are counted at
#: construction, since hot paths build ``Timeout`` directly rather than
#: through ``Simulation.timeout``.
ENTRY_POINTS = {
    "sim.events.process_calls": ("repro.sim.events", "Simulation.process"),
    "sim.events.timeout_calls": ("repro.sim.events", "Timeout.__init__"),
    "sim.bandwidth.transfer_calls": ("repro.sim.bandwidth",
                                     "SharedBandwidth.transfer"),
    "sim.resources.acquire_calls": ("repro.sim.resources",
                                    "Resource.acquire"),
    "sim.pagecache.lookup_calls": ("repro.sim.pagecache",
                                   "PageCache.lookup"),
}


def prepare(workload: str, seed: int):
    """Generate the seeded inputs and build the service.

    Returns ``(simulate, render, outputs)``: a zero-argument call that
    runs the simulation, the report/doctor rendering ``Session`` does
    for that workload kind, and the simulated statistics to check.
    ``work_units`` counts the simulated work: training epochs run for
    the serve and control workloads, requests for the stream one.
    """
    if workload == "serve64_hot_raw":
        from repro.core.report import service_summary, tenant_table
        from repro.serve import PreprocessingService, diagnose_service
        trace = scenarios.build_trace(
            **dict(HOT_RAW["trace"], seed=HOT_RAW["trace"]["seed"] + seed))
        service = PreprocessingService(
            policy=HOT_RAW["policies"][0], slots=HOT_RAW["slots"],
            tie_break=HOT_RAW["tie_break"])

        def render(report):
            return "\n".join([tenant_table(report).to_markdown(), "",
                              service_summary(report), "",
                              diagnose_service(report).to_markdown()])

        def outputs(report):
            return {"events": report.events_processed,
                    "makespan_s": report.makespan,
                    "aggregate_sps": report.aggregate_sps,
                    "p99_epoch_s": report.p99_epoch_seconds,
                    "cache_hit_ratio": report.cache_hit_ratio,
                    "page_cache_evictions": report.page_cache_evictions,
                    "work_units": sum(len(job.epochs)
                                      for job in report.tenants)}

        return (lambda: service.run(trace)), render, outputs
    if workload == "ctl_ops_chaos32":
        from repro.core.report import service_summary, tenant_table
        from repro.ctl import Dispatcher, control_summary, control_table
        from repro.faults import generate_fault_plan
        from repro.serve import diagnose_service
        trace = scenarios.build_trace(
            **dict(CTL["trace"], seed=CTL["trace"]["seed"] + seed))
        plan = generate_fault_plan(
            **dict(CTL["faults"], seed=CTL["faults"]["seed"] + seed))
        dispatcher = Dispatcher(
            policy=CTL["policy"], slots=CTL["slots"], faults=plan,
            checkpoint_epochs=CTL["checkpoint_epochs"],
            shed_slo=CTL["shed_slo"])

        def render(report):
            service = report.service
            return "\n".join([tenant_table(service).to_markdown(), "",
                              service_summary(service), "",
                              diagnose_service(service).to_markdown(), "",
                              control_summary(report), "",
                              control_table(report).to_markdown()])

        def outputs(report):
            service = report.service
            return {"events": report.events_processed,
                    "makespan_s": service.makespan,
                    "aggregate_sps": service.aggregate_sps,
                    "p99_epoch_s": service.p99_epoch_seconds,
                    "cache_hit_ratio": service.cache_hit_ratio,
                    "page_cache_evictions": service.page_cache_evictions,
                    "fault_windows": len(service.fault_events),
                    "transfers_aborted": service.transfers_aborted,
                    "retries": report.total_retries,
                    "shed": report.total_shed,
                    "lost_epochs": report.total_lost_epochs,
                    "dead_lettered": report.dead,
                    "work_units": sum(len(job.epochs)
                                      for job in service.tenants)}

        return (lambda: dispatcher.run(trace)), render, outputs
    if workload == "stream64_poisson":
        from repro.core.report import stream_summary, stream_table
        from repro.stream import (StreamingService, diagnose_stream,
                                  generate_stream)
        kwargs = dict(STREAM)
        tenants = kwargs.pop("tenants")
        stream_seed = kwargs.pop("seed") + seed
        streams = generate_stream(tenants, seed=stream_seed, **kwargs)
        service = StreamingService()

        def render(report):
            return "\n".join([stream_table(report).to_markdown(), "",
                              stream_summary(report), "",
                              diagnose_stream(report).to_markdown()])

        def outputs(report):
            return {"events": report.events_processed,
                    "makespan_s": report.makespan,
                    "p99_latency_s": report.p99_latency,
                    "miss_fraction": report.miss_fraction,
                    "shed": report.total_shed,
                    "cache_hit_ratio": report.cache_hit_ratio,
                    "work_units": report.total_requests}

        return (lambda: service.run(streams, seed=stream_seed)), render, \
            outputs
    raise SystemExit(f"unknown workload {workload!r}")


def host_ref_ms() -> list:
    """Milliseconds of each of ``REF_CHUNKS`` fixed heap push/pop chunks."""
    rng = random.Random(REF_ITEMS)
    values = [rng.random() for _ in range(REF_ITEMS)]
    times = []
    for _ in range(REF_CHUNKS):
        started = time.perf_counter()
        heap: list = []
        for value in values:
            heapq.heappush(heap, value)
        while heap:
            heapq.heappop(heap)
        times.append((time.perf_counter() - started) * 1000)
    return times


def _layer_of(module: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or (prefix.endswith(".")
                                and module.startswith(prefix)):
            return layer
    return "other"


def fold(profile: cProfile.Profile) -> dict:
    """Fold per-function cProfile stats into per-layer metrics.

    A function's layer comes from its ``repro`` module; a builtin's time
    and calls are charged to the layer of each function that called it,
    by that caller's share.  The layers plus ``other`` cover every
    traced second, so the self shares sum to one.
    """
    import repro
    package = Path(repro.__file__).resolve().parent

    def module_of(filename: str):
        try:
            relative = Path(filename).resolve().relative_to(package)
        except ValueError:
            return None
        return ".".join(relative.with_suffix("").parts)

    def layer_of(func) -> str:
        module = module_of(func[0])
        return "other" if module is None else _layer_of(module)

    entries = {}
    for name, (module, qualname) in ENTRY_POINTS.items():
        target = importlib.import_module(module)
        for attribute in qualname.split("."):
            target = getattr(target, attribute)
        code = target.__code__
        entries[(code.co_filename, code.co_firstlineno, code.co_name)] = name
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    entry_calls = dict.fromkeys(ENTRY_POINTS, 0)
    for func, (_, ncalls, tottime, _, callers) in \
            pstats.Stats(profile).stats.items():
        if func[0] == "~":
            for caller, (caller_ncalls, _, caller_tt, _) in callers.items():
                layer = layer_of(caller)
                self_s[layer] += caller_tt
                calls[layer] += caller_ncalls
            continue
        layer = layer_of(func)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if func in entries:
            entry_calls[entries[func]] += ncalls
    traced = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_s[layer] / traced
        metrics[f"{layer}.calls"] = calls[layer]
    metrics.update(entry_calls)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "sim", "trace"),
                        required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()
    simulate, render, outputs = prepare(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.launched,
              "ref_ms": host_ref_ms()}
    if args.mode != "setup":
        profile = cProfile.Profile() if args.mode == "trace" else None
        started = time.perf_counter()
        if profile is not None:
            profile.enable()
        report = simulate()
        simulated = time.perf_counter()
        text = render(report)
        if profile is not None:
            profile.disable()
        ended = time.perf_counter()
        result.update(
            wall_s=ended - started, render_s=ended - simulated,
            outputs=outputs(report),
            report_sha256=hashlib.sha256(text.encode()).hexdigest())
        if profile is not None:
            result["metrics"] = fold(profile)
        result["ref_ms"] += host_ref_ms()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
