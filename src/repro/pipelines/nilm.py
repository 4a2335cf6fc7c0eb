"""The NILM pipeline (paper Fig. 5c): MEED-style event detection on CREAM.

Chain: read hourly HDF5 containers -> decode/slice into 10 s windows
(``2 x 64000`` float64) -> aggregate into ``3 x 500`` float64 features
(reactive power, current RMS, CUSUM of the RMS).

Both steps run NumPy/h5py code through ``tf.py_function`` in the paper,
so both hold the GIL -- this pipeline is the cleanest demonstration of
Sec. 4.4 obs. 2 (external libraries break thread scaling; speedups fall
*below* 1.0).  There is no concatenation step: the raw data already ships
as concatenated binary containers.

The ``aggregated`` strategy is the paper's sharpest dispatch-bound case:
0.012 MB samples pin throughput at ~9 k SPS however many threads run, and
caching buys almost nothing (1.1x).
"""

from __future__ import annotations

from repro import calibration as cal
from repro.datasets.catalog import CREAM
from repro.pipelines.base import (EXTERNAL, PipelineSpec, Representation,
                                  StepSpec)
from repro.units import GB


# Step bodies import their transforms (and numpy): only the in-process
# backend calls them, so a simulated run never loads the array layer.


def _decode(sample, rng):
    from repro.formats import codecs
    return codecs.decode_hdf5(sample)


def _aggregate(sample, rng):
    from repro.ops import nilm as nilm_ops
    return nilm_ops.aggregate_window(sample)


def build_nilm() -> PipelineSpec:
    """NILM on CREAM X8: 268 K windows from 744 hourly files (Fig. 6e)."""
    count = CREAM.sample_count
    source_bytes = CREAM.total_bytes / count              # 0.1477 MB
    representations = [
        # The raw dataset lives in 744 sequential containers, not one file
        # per sample, so reads are already mostly sequential.
        Representation("unprocessed", source_bytes, dtype="float64",
                       n_files=CREAM.n_files, record_format=False),
        Representation("decoded", 262.5 * GB / count, dtype="float64",
                       # Fig. 10i: 262.5 GB -> 220.4 GB.
                       compressibility={"GZIP": 0.160, "ZLIB": 0.160}),
        Representation("aggregated", 3.1 * GB / count, dtype="float64",
                       # Fig. 10i: 3.1 GB -> 2.9 GB.
                       compressibility={"GZIP": 0.065, "ZLIB": 0.065}),
    ]
    steps = [
        StepSpec("decode", cpu_seconds=cal.NILM_DECODE_HDF5, impl=EXTERNAL,
                 fn=_decode),
        StepSpec("aggregate", cpu_seconds=cal.NILM_AGGREGATE, impl=EXTERNAL,
                 fn=_aggregate),
    ]
    return PipelineSpec("NILM", representations, steps, count,
                        description="MEED event-detection features on CREAM")
