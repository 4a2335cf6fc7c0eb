"""The cluster runtime's drain path, sampler and null defaults."""

import pytest

from repro.backends.base import Environment
from repro.errors import SimulationError
from repro.faults.plan import Brownout, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.serve.runtime import ClusterReport, ClusterRuntime
from repro.sim.events import Simulation


class _Boom(Exception):
    pass


def _never_sample(registry):
    raise AssertionError("sampler ran without a registry")


def _runtime(**kwargs) -> ClusterRuntime:
    return ClusterRuntime(Environment(), readers=4, **kwargs)


class TestDrain:
    def test_process_stuck_on_an_untriggered_event_is_named(self):
        runtime = _runtime()
        sim = runtime.sim
        never = sim.event()

        def waiter():
            yield never

        def finisher():
            yield sim.timeout(1.0)

        processes = [sim.process(waiter(), name="stuck-waiter"),
                     sim.process(finisher(), name="finisher")]
        with pytest.raises(SimulationError,
                           match=r"drained with unfinished work: "
                                 r"\['stuck-waiter'\]"):
            runtime.run(processes, lambda: False, _never_sample)

    def test_workload_exception_surfaces_unchanged(self):
        runtime = _runtime()
        sim = runtime.sim
        error = _Boom("tenant process failed")

        def failing():
            yield sim.timeout(2.0)
            raise error

        process = sim.process(failing(), name="failing")
        with pytest.raises(_Boom) as caught:
            runtime.run([process], lambda: False, _never_sample)
        assert caught.value is error

    def test_finished_run_drains_to_the_last_event(self):
        runtime = _runtime()
        sim = runtime.sim

        def work():
            yield sim.timeout(3.0)

        runtime.run([sim.process(work(), name="work")], lambda: False,
                    _never_sample)
        assert sim.now == 3.0


class TestNullDefaults:
    def test_no_plan_and_no_registry_add_no_events(self):
        def work(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        bare = Simulation()
        bare.process(work(bare), name="work")
        bare.run()
        runtime = _runtime()
        runtime.run([runtime.sim.process(work(runtime.sim), name="work")],
                    lambda: True, _never_sample)
        assert runtime.fault_engine is None
        assert runtime.sim.events_processed == bare.events_processed

    def test_per_stream_share_is_the_fair_share_over_readers(self):
        environment = Environment()
        storage = environment.storage
        for readers in (1, 4, 64):
            runtime = ClusterRuntime(environment, readers=readers)
            assert runtime.cluster.read_link.per_stream_bw == min(
                storage.stream_bw, storage.aggregate_bw / readers)
            assert storage.stream_share(readers) \
                == runtime.cluster.read_link.per_stream_bw


class TestSampler:
    def test_samples_while_live_then_stops(self):
        registry = MetricsRegistry(interval=1.0)
        runtime = _runtime(metrics=registry)
        sim = runtime.sim
        state = {"live": True}

        def work():
            yield sim.timeout(2.5)
            state["live"] = False

        def sample(seen):
            assert seen is registry
            runtime.sample_cluster(seen)

        runtime.run([sim.process(work(), name="work")],
                    lambda: state["live"], sample)
        assert [snap["t"] for snap in registry.samples] == [1.0, 2.0, 3.0]
        assert "faults.active" not in registry.samples[0]["values"]
        assert list(registry.samples[0]["values"])[0] \
            == "link.active_streams"

    def test_fault_gauges_and_stamp_with_a_plan(self):
        registry = MetricsRegistry(interval=1.0)
        plan = FaultPlan(brownouts=(Brownout(start=0.5, duration=1.0),))
        runtime = _runtime(faults=plan, metrics=registry)
        sim = runtime.sim

        def work():
            yield sim.timeout(2.0)

        runtime.run([sim.process(work(), name="work")],
                    lambda: sim.now < 2.0, runtime.sample_cluster)
        assert registry.samples[0]["values"]["faults.active"] == 1
        assert registry.samples[0]["values"][
            "faults.capacity_stretch"] == 4.0

        report = ClusterReport(environment=runtime.environment)
        runtime.stamp(report)
        assert report.events_processed == sim.events_processed
        assert report.metadata_peak_in_use \
            == runtime.cluster.metadata.peak_in_use
        assert report.page_cache_evictions \
            == runtime.machine.page_cache.evictions
        assert [event.kind for event in report.fault_events] \
            == ["brownout"]
        assert report.transfers_aborted == 0
