"""Cross-checks: DES service vs the Sec. 7 closed forms, and the
acceptance scenario (cache-aware beats FIFO under contention)."""

import pytest

from repro.backends import RunConfig, SimulatedBackend
from repro.core.distributed import estimate_fan_out
from repro.pipelines import get_pipeline
from repro.serve import (bursty_trace, fan_out_frame_simulated,
                         simulate_fan_out, sweep_policies)


class TestSingleTenantLimit:
    """The DES serve result converges to the analytic estimate when
    there is nothing to contend with (ISSUE acceptance: within 5%)."""

    @pytest.mark.parametrize("pipeline,split", [
        ("MP3", "spectrogram-encoded"),
        ("FLAC", "decoded"),
        ("NILM", "aggregated"),
    ])
    def test_single_tenant_matches_estimate_fan_out(self, pipeline, split):
        plan = get_pipeline(pipeline).split_at(split)
        config = RunConfig(threads=8, epochs=1)
        single_sps = SimulatedBackend().run(plan, config).throughput
        analytic = estimate_fan_out(plan, config, trainers=1,
                                    single_job_sps=single_sps)
        report = simulate_fan_out(plan, config, trainers=1)
        served = report.tenants[0].throughput
        assert served == pytest.approx(analytic.delivered_sps, rel=0.05)
        # The agreement is in fact exact up to float noise: the service
        # reuses the backend's own epoch process.
        assert served == pytest.approx(analytic.delivered_sps, rel=1e-9)


class TestFanOutFrame:
    def test_simulated_frame_shape_and_bounds(self):
        plan = get_pipeline("MP3").split_at("spectrogram-encoded")
        config = RunConfig(threads=8, epochs=1)
        frame = fan_out_frame_simulated(plan, config,
                                        trainer_counts=(1, 4))
        rows = {row["trainers"]: row for row in frame.rows()}
        assert set(rows) == {1, 4}
        assert rows[1]["ratio"] == pytest.approx(1.0, abs=1e-3)
        # The closed form is an optimistic bound: co-simulation charges
        # metadata queueing and CPU-pool contention on top of the link.
        assert rows[4]["simulated_sps"] <= rows[4]["analytic_sps"] * 1.001
        assert rows[4]["simulated_sps"] < rows[1]["simulated_sps"]


class TestPolicyOrdering:
    def test_cache_aware_beats_fifo_on_the_contended_scenario(self):
        """The golden-pinned contended scenario: 8 bursty tenants on 2
        slots, most wanting one hot artifact.  Dedup plus co-location
        must win on aggregate throughput (ISSUE acceptance)."""
        trace = bursty_trace(tenants=8, seed=0)
        result = sweep_policies(trace, policies=("fifo", "cache-aware"),
                                slots=2)
        fifo = result.report("fifo")
        aware = result.report("cache-aware")
        assert aware.offline_deduped > 0
        assert aware.aggregate_sps > fifo.aggregate_sps * 1.1
        assert aware.makespan < fifo.makespan
        assert result.best_policy() == "cache-aware"

    def test_sweep_frame_lists_every_policy(self):
        trace = bursty_trace(tenants=4, seed=1)
        result = sweep_policies(trace, slots=2)
        frame = result.frame()
        assert frame["policy"] == ["fifo", "fair-share", "cache-aware"]
        assert {"aggregate_sps", "p99_epoch_s", "deduped",
                "bound"} <= set(frame.columns)
