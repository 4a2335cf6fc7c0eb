"""Pinned performance scenarios.

Each scenario is deterministic: its kernel event count and simulated
end time must be identical on every host and every run.  ``make
bench-check`` (``bench_serve.py --check``) replays every ``*_CHECK_*``
scenario below plus ``link10k`` and asserts those figures against
``baseline.json``.  simbench (``simbench/worker.py``) builds its three
host-time workloads from ``serve64_hot_raw``, ``ctl_ops_chaos32`` and
``stream64``.

Scenarios
---------
* ``serve64``          -- 64-tenant bursty serve on 16 slots under
                          cache-aware scheduling (default pipeline mix).
* ``serve64_hot_raw``  -- 64 bursty tenants, full co-tenancy (64 slots),
                          hot artifact pinned to the *raw* CV2-PNG
                          dataset whose working set exceeds the page
                          cache: sustained storage-stream concurrency,
                          the regime where the historical O(n) link
                          rescans went quadratic.  Runs under the
                          ``tenant`` tie-break so equal-score ordering
                          is pinned by name, not arrival.
* ``stream64``         -- 64 bursty tenant request streams through the
                          streaming inference engine (bounded queues,
                          per-request deadlines): the latency-path
                          analogue of ``serve64``.
* ``ctl_ops_chaos32``  -- long-horizon operations trace (3 simulated
                          days, 32 tenants) through the control plane
                          with the full chaos timeline injected
                          (straggler + device slowdown + brownout +
                          blackout + crash window, checkpoint-aware
                          resume, SLO-aware shedding).
* ``link10k``          -- kernel microbenchmark: 10,000 transfers over
                          one max-min fair link at 512-way concurrency,
                          no model code at all.
"""

from __future__ import annotations

from repro.units import MB

#: Serve-scenario definitions: trace kwargs + service kwargs.
SERVE_SCENARIOS = {
    "serve64": dict(
        trace=dict(kind="bursty", tenants=64, seed=0),
        policies=("cache-aware",), slots=16),
    "serve64_hot_raw": dict(
        trace=dict(kind="bursty", tenants=64, seed=0, burst_size=8,
                   pipelines=("CV2-PNG", "CV2-JPG"),
                   hot_pipeline="CV2-PNG", hot_split="unprocessed"),
        policies=("cache-aware",), slots=64, tie_break="tenant"),
}

#: Scenarios the CI smoke (``make bench-check``) replays.  serve64 is
#: the default-mix bursty scenario; serve64_hot_raw is the pinned
#: kernel-speedup acceptance scenario (sustained storage concurrency).
CHECK_SCENARIOS = ("serve64", "serve64_hot_raw")

#: Streaming-inference scenario definitions (generate_stream kwargs).
STREAM_SCENARIOS = {
    "stream64": dict(tenants=64, seed=0, arrival="burst", rate=2.0,
                     requests=48, batch=32, workers=4, queue_bound=8),
}

#: Stream scenarios the CI smoke replays alongside CHECK_SCENARIOS.
STREAM_CHECK_SCENARIOS = ("stream64",)

#: Control-plane chaos scenarios: trace kwargs + dispatcher kwargs +
#: fault-plan kwargs (generate_fault_plan).  Deterministic like every
#: other scenario -- same seed, same timeline, same event count.
CTL_SCENARIOS = {
    "ctl_ops_chaos32": dict(
        trace=dict(kind="operations", tenants=32, seed=0),
        policy="cache-aware", slots=8,
        faults=dict(seed=3, horizon=20000.0, stragglers=1, slowdowns=1,
                    brownouts=1, blackouts=1, crash_windows=1,
                    severity=0.6),
        checkpoint_epochs=2, shed_slo=True),
}

#: Chaos scenarios the CI smoke replays alongside CHECK_SCENARIOS.
CTL_CHECK_SCENARIOS = ("ctl_ops_chaos32",)

LINK_STREAMS = 512
LINK_TRANSFERS = 10_000


def build_trace(kind: str, **kwargs):
    from repro.serve import generate_trace
    return generate_trace(kind, **kwargs)


def run_serve_scenario(name: str) -> dict:
    """Run one pinned serve scenario: ``policy -> pinned figures``."""
    from repro.serve import PreprocessingService
    spec = SERVE_SCENARIOS[name]
    policies = {}
    for policy in spec["policies"]:
        trace = build_trace(**spec["trace"])
        service = PreprocessingService(
            policy=policy, slots=spec["slots"],
            tie_break=spec.get("tie_break", "arrival"))
        report = service.run(trace)
        policies[policy] = {"events": report.events_processed,
                            "makespan_s": round(report.makespan, 3)}
    return policies


def run_stream_scenario(name: str) -> dict:
    """Run one pinned streaming-inference scenario."""
    from repro.stream import StreamingService, generate_stream
    spec = STREAM_SCENARIOS[name]
    kwargs = dict(spec)
    tenants = kwargs.pop("tenants")
    seed = kwargs.pop("seed")
    streams = generate_stream(tenants, seed=seed, **kwargs)
    report = StreamingService().run(streams, seed=seed)
    return {"events": report.events_processed,
            "makespan_s": round(report.makespan, 3)}


def run_ctl_scenario(name: str) -> dict:
    """Run one pinned control-plane chaos scenario.

    The chaos timeline is seeded (``chaos-{seed}`` RNG namespace), so
    the injected windows -- and therefore the kernel event count -- are
    bit-identical across hosts.
    """
    from repro.ctl import Dispatcher
    from repro.faults import generate_fault_plan
    spec = CTL_SCENARIOS[name]
    trace = build_trace(**spec["trace"])
    plan = generate_fault_plan(**spec["faults"])
    dispatcher = Dispatcher(policy=spec["policy"], slots=spec["slots"],
                            faults=plan,
                            checkpoint_epochs=spec["checkpoint_epochs"],
                            shed_slo=spec["shed_slo"])
    report = dispatcher.run(trace)
    return {"events": report.events_processed,
            "makespan_s": round(report.service.makespan, 3),
            "fault_windows": len(report.service.fault_events)}


def run_link_microbench(streams: int = LINK_STREAMS,
                        transfers: int = LINK_TRANSFERS) -> dict:
    """Pure-kernel link stress: many concurrent max-min fair streams.

    No pipelines, no machine model -- just transfer arrivals and
    completions over the link hot path.
    """
    from repro.sim.bandwidth import SharedBandwidth
    from repro.sim.events import Simulation, all_of

    sim = Simulation()
    link = SharedBandwidth(sim, aggregate_bw=910 * MB,
                           per_stream_bw=219 * MB, name="bench")
    per_stream, extra = divmod(transfers, streams)

    def worker(worker_id: int, count: int):
        for index in range(count):
            # Deterministic, aperiodic sizes in [4, 8) MB.
            size = (1.0 + ((worker_id * 31 + index * 17) % 97) / 97.0) \
                * 4 * MB
            yield link.transfer(size)

    def main():
        yield all_of(sim, [
            sim.process(worker(i, per_stream + (1 if i < extra else 0)),
                        name=f"stream-{i}")
            for i in range(streams)])

    sim.run_process(main())
    assert link.total_transfers == transfers
    return {"events": sim.events_processed,
            "simulated_seconds": round(sim.now, 3)}
