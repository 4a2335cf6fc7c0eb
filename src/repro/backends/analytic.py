"""Closed-form bottleneck estimator (operational analysis).

The DES backend *executes* a strategy; this model *estimates* it with
queueing-theory bounds, using the same calibrated constants.  PRESTO uses
it for cheap pre-screening of large strategy grids ("profile a low-cost
VM, extrapolate" -- paper Sec. 3.1) and the test-suite cross-validates it
against the DES.

Model (per strategy, first epoch, cold caches):

* each of T threads processes samples sequentially:
  ``t_thread = open + read + decompress + deserialize + native CPU``
  with the read rate at the max-min fair share ``min(stream, agg / T)``;
* serialized sections bound throughput from above:
  the dispatch lock (~110 us + convoy per sample) and the GIL
  (sum of external-step costs + convoy);
* the aggregate link bounds throughput at ``agg_bw / bytes_per_sample``;
* metadata slots bound file-per-sample sources at
  ``slots / open_latency`` opens per second.

Throughput is the minimum of the per-thread pipelining bound and the
serialized/shared-resource caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import calibration as cal
from repro.backends.base import Environment, RunConfig
from repro.errors import ProfilingError
from repro.formats.compression import get_codec
from repro.pipelines.base import SplitPlan


@dataclass(frozen=True)
class StrategyEstimate:
    """Analytic throughput estimate with the per-resource bounds."""

    pipeline: str
    strategy: str
    throughput: float
    thread_bound: float
    dispatch_bound: float
    gil_bound: float
    link_bound: float
    metadata_bound: float
    storage_bytes: float
    offline_seconds: float

    @property
    def bottleneck(self) -> str:
        """Which resource binds (for "where is my bottleneck?" reports)."""
        bounds = {
            "threads(cpu+io)": self.thread_bound,
            "dispatch": self.dispatch_bound,
            "gil": self.gil_bound,
            "network-link": self.link_bound,
            "metadata": self.metadata_bound,
        }
        return min(bounds, key=bounds.get)


class AnalyticModel:
    """Closed-form strategy estimates sharing the DES calibration."""

    def __init__(self, environment: Optional[Environment] = None):
        self.environment = environment or Environment()

    def sample_time_components(self, plan: SplitPlan,
                               config: RunConfig) -> dict[str, float]:
        """Per-sample sequential time, broken down by phase.

        The keys (``open``, ``read``, ``decompress``, ``deserialize``,
        ``native_cpu``, ``external_cpu``, ``shuffle``, ``overhead``,
        ``dispatch``) name the model's own phases -- they are *not* the
        simulator's trace categories; ``_MODEL_CATEGORY`` in
        :mod:`repro.diagnosis.attribution` maps them onto attribution
        buckets.  The values sum -- in insertion order -- to the
        per-thread time per sample that :meth:`estimate` pipelines into
        ``thread_bound``.  The diagnosis layer uses this as the
        attribution fallback for backends that measure no traces.
        """
        env = self.environment
        storage = env.storage
        pipeline = plan.pipeline
        threads = min(config.threads, pipeline.sample_count)
        stored = plan.materialized
        codec = get_codec(config.compression)
        raw_bytes = stored.bytes_per_sample
        disk_bytes = (raw_bytes if plan.is_unprocessed
                      else stored.compressed_bytes_per_sample(
                          config.compression))
        stream_bw = storage.stream_share(threads)
        opens_per_sample = ((stored.n_files / pipeline.sample_count)
                            if stored.n_files is not None else 0.0)
        open_concurrency = min(threads, storage.metadata_slots)
        return {
            "open": (opens_per_sample * storage.pipeline_open_latency
                     * stored.open_latency_factor
                     * threads / max(open_concurrency, 1)),
            "read": disk_bytes / stream_bw,
            "decompress": (raw_bytes / codec.costs.decompress_bw
                           if codec else 0.0),
            "deserialize": (cal.DESER_FIXED
                            + raw_bytes * stored.deser_penalty
                            / cal.DESER_BW_PER_THREAD
                            if stored.record_format else 0.0),
            "native_cpu": sum(step.cpu_seconds
                              for step in plan.online_steps
                              if not step.holds_gil),
            "external_cpu": sum(step.cpu_seconds
                                for step in plan.online_steps
                                if step.holds_gil),
            "shuffle": (cal.SHUFFLE_PER_SAMPLE if config.shuffle_buffer
                        else 0.0),
            "overhead": cal.runtime_overhead(raw_bytes),
            "dispatch": cal.DISPATCH_COST,
        }

    def estimate(self, plan: SplitPlan,
                 config: RunConfig) -> StrategyEstimate:
        if plan.is_unprocessed and config.compression:
            raise ProfilingError(
                "compression on the unprocessed strategy is not meaningful")
        env = self.environment
        storage = env.storage
        pipeline = plan.pipeline
        threads = min(config.threads, pipeline.sample_count)
        stored = plan.materialized
        raw_bytes = stored.bytes_per_sample
        disk_bytes = (raw_bytes if plan.is_unprocessed
                      else stored.compressed_bytes_per_sample(
                          config.compression))

        # -- per-thread sequential time per sample -------------------------
        components = self.sample_time_components(plan, config)
        opens_per_sample = ((stored.n_files / pipeline.sample_count)
                            if stored.n_files is not None else 0.0)
        external_cpu = components["external_cpu"]
        t_thread = sum(components.values())
        thread_bound = threads / t_thread

        # -- serialized and shared caps -------------------------------------
        convoy_waiters = min(threads - 1, 8)
        dispatch_bound = 1.0 / (cal.DISPATCH_COST
                                + convoy_waiters * cal.DISPATCH_CONVOY)
        if external_cpu > 0:
            gil_bound = 1.0 / (external_cpu
                               + convoy_waiters * cal.GIL_CONVOY)
        else:
            gil_bound = float("inf")
        link_bound = (storage.aggregate_bw / disk_bytes
                      if disk_bytes > 0 else float("inf"))
        if opens_per_sample > 0:
            metadata_bound = (storage.metadata_slots
                              / (opens_per_sample
                                 * storage.pipeline_open_latency))
        else:
            metadata_bound = float("inf")

        throughput = min(thread_bound, dispatch_bound, gil_bound,
                         link_bound, metadata_bound)
        return StrategyEstimate(
            pipeline=pipeline.name,
            strategy=plan.strategy_name,
            throughput=throughput,
            thread_bound=thread_bound,
            dispatch_bound=dispatch_bound,
            gil_bound=gil_bound,
            link_bound=link_bound,
            metadata_bound=metadata_bound,
            storage_bytes=disk_bytes * pipeline.sample_count,
            offline_seconds=self._offline_estimate(plan, config),
        )

    # -- offline ------------------------------------------------------------

    def _offline_estimate(self, plan: SplitPlan, config: RunConfig) -> float:
        if plan.is_unprocessed:
            return 0.0
        env = self.environment
        storage = env.storage
        pipeline = plan.pipeline
        threads = min(config.threads, pipeline.sample_count)
        source = pipeline.source
        count = pipeline.sample_count
        out_bytes = plan.materialized.bytes_per_sample
        codec = get_codec(config.compression)

        opens = (source.n_files / count if source.n_files is not None
                 else 0.0)
        open_concurrency = min(threads, storage.metadata_slots)
        per_sample = (
            opens * storage.pipeline_open_latency
            * threads / max(open_concurrency, 1)
            + source.bytes_per_sample / storage.stream_share(threads)
            + sum(step.cpu_seconds for step in plan.offline_steps
                  if not step.holds_gil)
            + cal.DESER_FIXED + out_bytes / cal.SER_BW_PER_THREAD
            + (out_bytes / codec.costs.compress_bw if codec else 0.0)
        )
        external = sum(step.cpu_seconds for step in plan.offline_steps
                       if step.holds_gil)
        parallel_time = count * per_sample / threads
        serial_time = count * external
        stored_bytes = plan.materialized.compressed_bytes_per_sample(
            config.compression) * count
        write_time = stored_bytes / storage.write_bw
        return max(parallel_time + serial_time, write_time)
