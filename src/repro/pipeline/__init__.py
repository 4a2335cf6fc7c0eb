"""A tf.data-style dataset runtime with real threaded execution.

:class:`repro.pipeline.dataset.PipelineDataset` mirrors the slice of the
``tf.data`` API the paper's PRESTO relies on: build a lazy graph with
``from_generator`` / ``from_record_shards``, chain ``map`` (optionally
parallel), ``cache``, ``shuffle``, ``batch`` and ``prefetch``, then
iterate.  Iteration spins up real worker threads, so GIL effects on
Python-heavy map functions are genuine, not simulated.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pipeline.dataset": ("PipelineDataset",),
    "repro.pipeline.io": ("read_shards", "write_shards"),
})

__all__ = ["PipelineDataset", "read_shards", "write_shards"]
